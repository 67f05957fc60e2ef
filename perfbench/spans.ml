(* The benchmark's own span recorder: one span per call into a layer
   (or per batch of [calls] calls), with name, start, end, parent span
   and request id.  A span's name is [<layer>.<operation>], and names
   the same operation every time it is recorded.  Spans stay in memory
   and are written out (JSON lines) when the run ends; the reporter
   derives per-layer self time from them.  Disabled, a span costs one
   branch. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { id : int; parent : int; name : string; t0 : int; t1 : int; req : int; calls : int }

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let fresh () =
  incr next_id;
  !next_id

let add s = spans := s :: !spans

let innermost () = match !stack with p :: _ -> p | [] -> 0

(* Record an already-timed span (the load generator times requests
   itself; a batch times its calls), by default under the innermost
   open span. *)
let record ?parent ?(req = 0) ?(calls = 1) name t0 t1 =
  if !enabled then begin
    let id = fresh () in
    let parent = match parent with Some p -> p | None -> innermost () in
    add { id; parent; name; t0; t1; req; calls };
    id
  end
  else 0

(* Time [f] as a span nested under the innermost open one. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = innermost () in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish () =
      add { id; parent; name; t0; t1 = now_ns (); req = 0; calls = 1 };
      stack := List.tl !stack
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"t0\":%d,\"t1\":%d,\"req\":%d,\"calls\":%d}\n"
        s.id s.parent s.name s.t0 s.t1 s.req s.calls)
    (List.rev !spans);
  close_out oc
