(* Unit tests of the benchmark's statistics (perfbench/stats.ml). *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)

let () =
  (* median and quantiles *)
  check "median odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  check "median single" (Stats.median [ 7.0 ] = 7.0);
  check "median empty" (Float.is_nan (Stats.median []));
  check "quartiles"
    (close (Stats.quantile [ 1.0; 2.0; 3.0; 4.0; 5.0 ] 0.25) 2.0
    && close (Stats.quantile [ 5.0; 4.0; 3.0; 2.0; 1.0 ] 0.75) 4.0);
  check "quantile interpolates" (close (Stats.quantile [ 0.0; 10.0 ] 0.3) 3.0);
  check "quantile infinite tail"
    (Stats.quantile [ 1.0; infinity; infinity ] 0.99 = infinity
    && Stats.quantile [ 1.0; 2.0; infinity ] 0.5 = 2.0);
  (* the highest percentile with ten samples beyond it *)
  let l n = List.init n float_of_int in
  check "tail 1000 -> p99" (match Stats.percentile_or_tail (l 1000) 99.9 with Some (p, _) -> p = 99.0 | None -> false);
  check "tail 10000 -> p99.9" (match Stats.percentile_or_tail (l 10000) 99.9 with Some (p, _) -> p = 99.9 | None -> false);
  check "tail 999 -> p95" (match Stats.percentile_or_tail (l 999) 99.9 with Some (p, _) -> p = 95.0 | None -> false);
  check "tail 100 -> p90" (match Stats.percentile_or_tail (l 100) 99.9 with Some (p, _) -> p = 90.0 | None -> false);
  check "tail 19 -> none" (Stats.percentile_or_tail (l 19) 99.9 = None);
  check "tail 20 -> p50" (match Stats.percentile_or_tail (l 20) 99.9 with Some (p, _) -> p = 50.0 | None -> false);
  check "p99 of 1000"
    (match Stats.percentile_or_tail (l 1000) 99.0 with
    | Some (p, v) -> p = 99.0 && close v 989.01
    | None -> false);
  check "p99 falls back" (match Stats.percentile_or_tail (l 200) 99.0 with Some (p, _) -> p = 95.0 | None -> false);
  (* geometric-mean rate: a fast and a slow query weigh the same *)
  check "geomean" (close (Stats.geomean [ 125_000.0; 4.5 ]) (sqrt (125_000.0 *. 4.5)));
  check "geomean scale" (close (Stats.geomean [ 2.0; 8.0 ]) 4.0);
  check "geomean ignores non-positive" (close (Stats.geomean [ 0.0; 4.0 ]) 4.0);
  (* backlog: latencies that climb through the probe *)
  let flat = List.init 300 (fun i -> 0.002 +. (0.0001 *. float_of_int (i mod 7))) in
  let climbing = List.init 300 (fun i -> 0.002 +. (0.001 *. float_of_int i)) in
  check "flat has no backlog" (not (Stats.backlog_growing flat));
  check "climbing backlog" (Stats.backlog_growing climbing);
  check "short probe has no verdict" (not (Stats.backlog_growing [ 0.1; 0.2; 0.3 ]));
  (* open-loop lateness: send minus due, never negative *)
  check "lateness"
    (Stats.lateness ~due:[ 1.0; 2.0; 3.0 ] ~sent:[ 1.5; 1.9; 3.25 ] = [ 0.5; 0.0; 0.25 ]);
  (* probe verdicts *)
  check "probe ok" (Stats.probe_ok ~limit:0.1 ~pct:99.0 ~latencies:flat ~failed:0);
  check "probe fails on backlog" (not (Stats.probe_ok ~limit:1.0 ~pct:99.0 ~latencies:climbing ~failed:0));
  check "failures count as misses"
    (not (Stats.probe_ok ~limit:0.1 ~pct:99.0 ~latencies:(List.init 1000 (fun _ -> 0.001)) ~failed:20));
  check "too few samples fail" (not (Stats.probe_ok ~limit:0.1 ~pct:99.0 ~latencies:[ 0.001 ] ~failed:0));
  (* staircase threshold: the second half's geometric mean *)
  check "staircase" (close (Stats.staircase_estimate [ 100.0; 110.0; 121.0; 110.0; 121.0; 110.0 ]) (exp ((log 110.0 +. log 121.0 +. log 110.0) /. 3.0)));
  check "staircase odd" (close (Stats.staircase_estimate [ 1.0; 4.0; 16.0 ]) 8.0);
  if !failures > 0 then exit 1 else print_endline "perfbench stats: all checks passed"
