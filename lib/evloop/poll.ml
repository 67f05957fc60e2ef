let ev_read = 1
let ev_write = 2
let ev_error = 4

(* The stub reads the fd array with Int_val: on Unix a file_descr is an
   immediate int, so the arrays cross the boundary without copying. *)
external poll_stub :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "sxsi_evloop_poll"

type slot = { mutable interest : int; mutable idx : int }

type t = {
  tbl : (Unix.file_descr, slot) Hashtbl.t;
  mutable fds : Unix.file_descr array;      (* packed registrations *)
  mutable events : int array;               (* interest masks, same index *)
  mutable revents : int array;              (* readiness out-param *)
  mutable n : int;
  mutable dirty : bool;                     (* packed arrays need a rebuild *)
}

let create () =
  {
    tbl = Hashtbl.create 64;
    fds = [||];
    events = [||];
    revents = [||];
    n = 0;
    dirty = false;
  }

let set t fd interest =
  match Hashtbl.find_opt t.tbl fd with
  | Some s ->
    s.interest <- interest;
    if not t.dirty then t.events.(s.idx) <- interest
  | None ->
    Hashtbl.add t.tbl fd { interest; idx = -1 };
    t.dirty <- true

let remove t fd =
  if Hashtbl.mem t.tbl fd then begin
    Hashtbl.remove t.tbl fd;
    t.dirty <- true
  end

let cardinal t = Hashtbl.length t.tbl

let rebuild t =
  let n = Hashtbl.length t.tbl in
  if Array.length t.fds < n then begin
    let cap = max 16 (max n (2 * Array.length t.fds)) in
    t.fds <- Array.make cap Unix.stdin;
    t.events <- Array.make cap 0;
    t.revents <- Array.make cap 0
  end;
  let i = ref 0 in
  Hashtbl.iter
    (fun fd s ->
      t.fds.(!i) <- fd;
      t.events.(!i) <- s.interest;
      s.idx <- !i;
      incr i)
    t.tbl;
  t.n <- n;
  t.dirty <- false

let dispatch t k =
  (* Snapshot-driven dispatch: registration changes made by the
     callback only take effect on the next [wait].  Skip fds the
     callback removed meanwhile. *)
  let fired = ref 0 in
  for i = 0 to t.n - 1 do
    let r = t.revents.(i) in
    if r <> 0 && Hashtbl.mem t.tbl t.fds.(i) then begin
      incr fired;
      k t.fds.(i) r
    end
  done;
  !fired

let wait t ~timeout_ms k =
  if t.dirty then rebuild t;
  if t.n = 0 then begin
    (* nothing registered: just honor the timeout *)
    if timeout_ms > 0 then Unix.sleepf (float_of_int timeout_ms /. 1000.0);
    0
  end
  else if poll_stub t.fds t.events t.revents t.n timeout_ms = 0 then 0
  else dispatch t k
