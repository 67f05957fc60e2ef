(* Shared-nothing sharding: N independent {!Service.t}s, one per
   shard, with documents routed by a stable hash of their name.  Each
   shard owns a private registry and cache partition and is only ever
   driven by its own executor, so shards never contend on the service
   lock.  One shard (the default) is plain delegation — byte-identical
   to an unsharded service. *)

type t = { services : Service.t array }

let create ~shards f =
  if shards < 1 then invalid_arg "Shards.create";
  { services = Array.init shards f }

let of_service svc = { services = [| svc |] }
let count t = Array.length t.services
let primary t = t.services.(0)
let service t i = t.services.(i)
let iter f t = Array.iteri f t.services

let shard_of_doc t name =
  if Array.length t.services = 1 then 0
  else Hashtbl.hash name mod Array.length t.services

let for_doc t name = t.services.(shard_of_doc t name)

(* Requests that name a document route to its shard; everything else
   (STATS, METRICS, DUMP, DEADLINE, QUIT, parse errors) runs on the
   primary. *)
let shard_of_request t (req : Protocol.request) =
  match req with
  | Load { name; _ } | Evict name -> shard_of_doc t name
  | Query { doc; _ } | Count { doc; _ } | Materialize { doc; _ } | Trace { doc; _ }
    -> shard_of_doc t doc
  | Stats | Metrics | Dump | Deadline _ | Profile _ | Quit -> 0

let add_document t name doc = Service.add_document (for_doc t name) name doc
let shutdown t = Array.iter Service.shutdown t.services

(* Aggregate STATS across shards: integer values sum, floats sum,
   non-numeric values keep the primary's.  Key order follows the
   primary; keys later shards add are appended.  Percentiles do not
   sum (nor does the worst shard's stand for the whole), so they are
   recomputed from the merge of every shard's histograms, each copied
   under its own service lock.  With one shard this is exactly
   [Service.stats]. *)
let merge_values a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> string_of_int (x + y)
  | _ -> (
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some x, Some y -> Printf.sprintf "%.3f" (x +. y)
    | _ -> a)

let merged_percentiles services =
  let module H = Sxsi_obs.Histogram in
  let latency, admission_wait =
    Array.fold_left
      (fun (l, a) s ->
        let l', a' = Service.histograms s in
        (H.merge l l', H.merge a a'))
      (H.create (), H.create ())
      services
  in
  [
    ("latency_p50_ms", Metrics.quantile_ms latency 0.5);
    ("latency_p95_ms", Metrics.quantile_ms latency 0.95);
    ("latency_p99_ms", Metrics.quantile_ms latency 0.99);
    ("admission_wait_p95_ms", Metrics.quantile_ms admission_wait 0.95);
  ]

let stats t =
  match Array.to_list t.services with
  | [] -> []
  | [ s ] -> Service.stats s
  | first :: rest ->
    let acc = ref (Service.stats first) in
    List.iter
      (fun s ->
        let theirs = Service.stats s in
        let merged =
          List.map
            (fun (k, v) ->
              match List.assoc_opt k theirs with
              | None -> (k, v)
              | Some v' -> (k, merge_values v v'))
            !acc
        in
        let extra = List.filter (fun (k, _) -> not (List.mem_assoc k !acc)) theirs in
        acc := merged @ extra)
      rest;
    let pct = merged_percentiles t.services in
    List.map
      (fun (k, v) -> match List.assoc_opt k pct with Some p -> (k, p) | None -> (k, v))
      !acc

(* METRICS with shards is a debugging view: each shard's exposition
   under a marker comment.  With one shard it is the plain
   exposition. *)
let metrics_text t =
  if Array.length t.services = 1 then Service.metrics_text t.services.(0)
  else
    String.concat ""
      (List.mapi
         (fun i s -> Printf.sprintf "# shard %d\n%s" i (Service.metrics_text s))
         (Array.to_list t.services))
