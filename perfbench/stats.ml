(* The benchmark's statistics.  Pure functions over float lists, unit
   tested in test/test_stats.ml. *)

let sorted l = Array.of_list (List.sort compare l)

(* Linear interpolation between closest ranks ("inclusive" method):
   [quantile s 0.5] is the median of the sorted sample [s]. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else if n = 1 then s.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    let frac = h -. float_of_int lo in
    (* exact ranks and equal neighbours avoid [0 *. inf] on failures *)
    if frac = 0.0 || s.(hi) = s.(lo) then s.(lo) else s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let quantile l q = quantile_sorted (sorted l) q
let median l = quantile l 0.5

(* The usual percentiles, highest first. *)
let tail_percentiles = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The value at percentile [p] if at least ten samples lie beyond it,
   else at the highest of the usual percentiles below [p] that has
   ten, as (percentile, value); None when not even the median has. *)
let percentile_or_tail l p =
  let n = float_of_int (List.length l) in
  let enough q = n *. (100.0 -. q) /. 100.0 >= 10.0 -. 1e-6 in
  List.find_opt enough (p :: List.filter (fun q -> q < p) tail_percentiles)
  |> Option.map (fun q -> (q, quantile l (q /. 100.0)))

let geomean l =
  match List.filter (fun x -> x > 0.0) l with
  | [] -> nan
  | pos ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 pos /. float_of_int (List.length pos))

(* Open-loop backlog: latencies in due-time order.  The backlog is
   growing when the last third of the probe waited clearly longer than
   the first third — by more than 50 ms and by half again.  Queueing
   near saturation swings latency by tens of milliseconds within a
   second, so the slack is half the 100 ms latency limit. *)
let backlog_growing lat_in_due_order =
  let slack = 0.050 in
  let a = Array.of_list lat_in_due_order in
  let n = Array.length a in
  if n < 6 then false
  else begin
    let third = n / 3 in
    let first = median (Array.to_list (Array.sub a 0 third)) in
    let last = median (Array.to_list (Array.sub a (n - third) third)) in
    last -. first > slack && last > 1.5 *. first
  end

(* How late an open-loop generator ran: send time minus due time. *)
let lateness ~due ~sent = List.map2 (fun d s -> Float.max 0.0 (s -. d)) due sent

(* An open-loop probe meets the limit when the latency percentile is
   within it, counting a failed request as missing it, and the backlog
   does not grow. *)
let probe_ok ~limit ~pct ~latencies ~failed =
  let all = latencies @ List.init failed (fun _ -> infinity) in
  match percentile_or_tail all pct with
  | Some (_, v) -> v <= limit && not (backlog_growing latencies)
  | None -> false

(* The threshold rate of a 1-up-1-down staircase (rates in probe
   order): a staircase oscillates around the rate that passes half the
   time, so the geometric mean of its second half estimates it,
   averaging over the probes' noise. *)
let staircase_estimate rates =
  let n = List.length rates in
  geomean (List.filteri (fun i _ -> i >= n / 2) rates)
