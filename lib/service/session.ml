module J = Sxsi_obs.Journal

let n_write = J.name "service/write"

type line = Line of string | Too_long | Eof

(* Request lines are read through a bounded reader: the oversized line
   is drained to its newline — the session stays usable — and
   answered with ERR TOOLONG. *)
let read_request_line ~max_line ic =
  let buf = Buffer.create 128 in
  let rec fill () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max_line then begin
        (* drain the rest of the oversized line; EOF here still counts
           as end-of-line so the TOOLONG answer is sent *)
        (try
           while input_char ic <> '\n' do
             ()
           done
         with End_of_file -> ());
        Too_long
      end
      else begin
        Buffer.add_char buf c;
        fill ()
      end
  in
  fill ()

let run ?(max_line = Protocol.default_max_line) ic oc svc =
  (* session-level deadline override, set by the DEADLINE verb; [None]
     defers to the service's [default_deadline_ms] *)
  let deadline_ms = ref None in
  let rec loop () =
    match read_request_line ~max_line ic with
    | Eof -> ()
    | Too_long ->
      let resp = Service.reject svc (Protocol.too_long max_line) in
      output_string oc (Protocol.print_response resp);
      flush oc;
      loop ()
    | Line line ->
      let line = Protocol.chomp_cr line in
      let parsed = Protocol.parse_request line in
      (match parsed with
      | Ok (Protocol.Deadline ms) -> deadline_ms := Some ms
      | _ -> ());
      let resp = Service.handle_line ?deadline_ms:!deadline_ms svc line in
      J.with_span J.Service n_write (fun () ->
          output_string oc (Protocol.print_response resp);
          flush oc);
      if parsed <> Ok Protocol.Quit then loop ()
  in
  loop ()
