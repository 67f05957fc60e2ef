type request =
  | Load of { name : string; path : string }
  | Query of { doc : string; query : string }
  | Count of { doc : string; query : string }
  | Materialize of { doc : string; query : string }
  | Stats
  | Metrics
  | Dump
  | Trace of { doc : string; query : string }
  | Evict of string
  | Deadline of int
  | Profile of int
  | Quit

type response =
  | Ok of string list
  | Data of string list
  | Err of string

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

let default_max_line = 64 * 1024

let chomp_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let is_space c = c = ' ' || c = '\t'

(* Split off the first whitespace-delimited word; the remainder keeps
   its internal spacing (queries contain spaces). *)
let next_word s i =
  let n = String.length s in
  let i = ref i in
  while !i < n && is_space s.[!i] do incr i done;
  let start = !i in
  while !i < n && not (is_space s.[!i]) do incr i done;
  if start = !i then None
  else begin
    let word = String.sub s start (!i - start) in
    while !i < n && is_space s.[!i] do incr i done;
    Some (word, !i)
  end

let rest s i =
  let r = String.sub s i (String.length s - i) in
  String.trim r

let parse_request line =
  match next_word line 0 with
  | None -> Error "empty request"
  | Some (verb, i) -> begin
    let two_args ctor what =
      match next_word line i with
      | None -> Error (what ^ ": missing document name")
      | Some (doc, j) ->
        let q = rest line j in
        if q = "" then Error (what ^ ": missing query") else ctor doc q
    in
    match String.uppercase_ascii verb with
    | "LOAD" -> begin
      match next_word line i with
      | None -> Error "LOAD: missing name"
      | Some (name, j) -> begin
        match next_word line j with
        | None -> Error "LOAD: missing path"
        | Some (path, k) ->
          if rest line k <> "" then Error "LOAD: trailing garbage"
          else Result.Ok (Load { name; path })
      end
    end
    | "QUERY" -> two_args (fun doc query -> Result.Ok (Query { doc; query })) "QUERY"
    | "COUNT" -> two_args (fun doc query -> Result.Ok (Count { doc; query })) "COUNT"
    | "MATERIALIZE" ->
      two_args (fun doc query -> Result.Ok (Materialize { doc; query })) "MATERIALIZE"
    | "STATS" ->
      if rest line i <> "" then Error "STATS takes no argument" else Result.Ok Stats
    | "METRICS" ->
      if rest line i <> "" then Error "METRICS takes no argument" else Result.Ok Metrics
    | "DUMP" ->
      if rest line i <> "" then Error "DUMP takes no argument" else Result.Ok Dump
    | "TRACE" -> two_args (fun doc query -> Result.Ok (Trace { doc; query })) "TRACE"
    | "EVICT" -> begin
      match next_word line i with
      | None -> Error "EVICT: missing name"
      | Some (name, j) ->
        if rest line j <> "" then Error "EVICT: trailing garbage"
        else Result.Ok (Evict name)
    end
    | "DEADLINE" -> begin
      match next_word line i with
      | None -> Error "DEADLINE: missing milliseconds"
      | Some (ms, j) ->
        if rest line j <> "" then Error "DEADLINE: trailing garbage"
        else begin
          match int_of_string_opt ms with
          | Some v when v >= 0 -> Result.Ok (Deadline v)
          | Some _ | None -> Error "DEADLINE: want a non-negative millisecond count"
        end
    end
    | "PROFILE" -> begin
      match next_word line i with
      | None -> Result.Ok (Profile 1)
      | Some (secs, j) ->
        if rest line j <> "" then Error "PROFILE: trailing garbage"
        else begin
          match int_of_string_opt secs with
          | Some v when v >= 1 && v <= 60 -> Result.Ok (Profile v)
          | Some _ | None -> Error "PROFILE: want a window of 1..60 seconds"
        end
    end
    | "QUIT" ->
      if rest line i <> "" then Error "QUIT takes no argument" else Result.Ok Quit
    | v -> Error ("unknown request: " ^ v)
  end

let print_request = function
  | Load { name; path } -> Printf.sprintf "LOAD %s %s" name path
  | Query { doc; query } -> Printf.sprintf "QUERY %s %s" doc query
  | Count { doc; query } -> Printf.sprintf "COUNT %s %s" doc query
  | Materialize { doc; query } -> Printf.sprintf "MATERIALIZE %s %s" doc query
  | Stats -> "STATS"
  | Metrics -> "METRICS"
  | Dump -> "DUMP"
  | Trace { doc; query } -> Printf.sprintf "TRACE %s %s" doc query
  | Evict name -> "EVICT " ^ name
  | Deadline ms -> Printf.sprintf "DEADLINE %d" ms
  | Profile secs -> Printf.sprintf "PROFILE %d" secs
  | Quit -> "QUIT"

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

(* Machine-readable error codes lead the ERR message: "ERR DEADLINE
   ..." etc.  Anything else (parse errors, unknown documents) is a
   code-less ERR, so [err_code] returns [None] for it. *)
let err ?retry_after_ms code detail =
  match retry_after_ms with
  | None -> Err (Printf.sprintf "%s %s" code detail)
  | Some ms -> Err (Printf.sprintf "%s %s; retry-after-ms=%d" code detail ms)

let too_long max_line =
  err "TOOLONG" (Printf.sprintf "request line longer than %d bytes" max_line)

let is_code w =
  w <> ""
  && String.for_all (fun c -> c >= 'A' && c <= 'Z') w

let err_code = function
  | Ok _ | Data _ -> None
  | Err msg -> begin
    match String.index_opt msg ' ' with
    | Some i when is_code (String.sub msg 0 i) -> Some (String.sub msg 0 i)
    | None when is_code msg -> Some msg
    | Some _ | None -> None
  end

let retry_after_ms = function
  | Ok _ | Data _ -> None
  | Err msg ->
    let marker = "retry-after-ms=" in
    let mlen = String.length marker in
    let n = String.length msg in
    let rec find i =
      if i + mlen > n then None
      else if String.sub msg i mlen = marker then begin
        let j = ref (i + mlen) in
        while !j < n && msg.[!j] >= '0' && msg.[!j] <= '9' do incr j done;
        int_of_string_opt (String.sub msg (i + mlen) (!j - i - mlen))
      end
      else find (i + 1)
    in
    find 0

let stuff line = if String.length line > 0 && line.[0] = '.' then "." ^ line else line

let unstuff line =
  if String.length line > 0 && line.[0] = '.' then String.sub line 1 (String.length line - 1)
  else line

let print_response = function
  | Ok [] -> "OK\n"
  | Ok toks -> "OK " ^ String.concat " " toks ^ "\n"
  | Err msg -> "ERR " ^ msg ^ "\n"
  | Data lines ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "DATA\n";
    List.iter
      (fun l ->
        Buffer.add_string buf (stuff l);
        Buffer.add_char buf '\n')
      lines;
    Buffer.add_string buf ".\n";
    Buffer.contents buf

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_response lines =
  match lines with
  | [] -> Error "empty response"
  | first :: tl ->
    if first = "OK" then Result.Ok (Ok [], tl)
    else if String.length first >= 3 && String.sub first 0 3 = "OK " then
      Result.Ok (Ok (split_words (String.sub first 3 (String.length first - 3))), tl)
    else if String.length first >= 4 && String.sub first 0 4 = "ERR " then
      Result.Ok (Err (String.sub first 4 (String.length first - 4)), tl)
    else if first = "DATA" then begin
      let rec body acc = function
        | [] -> Error "unterminated DATA payload"
        | "." :: tl -> Result.Ok (Data (List.rev acc), tl)
        | l :: tl -> body (unstuff l :: acc) tl
      in
      body [] tl
    end
    else Error ("malformed response line: " ^ first)

let read_response read_line =
  match read_line () with
  | None -> Error "connection closed"
  | Some first ->
    if first = "DATA" then begin
      let rec body acc =
        match read_line () with
        | None -> Error "connection closed inside DATA payload"
        | Some "." -> Result.Ok (Data (List.rev acc))
        | Some l -> body (unstuff l :: acc)
      in
      body []
    end
    else begin
      match parse_response [ first ] with
      | Result.Ok (r, _) -> Result.Ok r
      | Error e -> Error e
    end
