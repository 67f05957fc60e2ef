(** Shared-nothing sharding for the event-driven front end: N
    independent {!Service.t}s with documents routed by a stable hash
    of their name.

    Each shard owns a private registry and cache partition and is
    driven by a single executor, so shards never contend on a shared
    lock.  The default of one shard is plain delegation:
    byte-identical responses to an unsharded service. *)

type t

val create : shards:int -> (int -> Service.t) -> t
(** [create ~shards f] builds shard [i] with [f i].
    @raise Invalid_argument when [shards < 1]. *)

val of_service : Service.t -> t
(** A single-shard router over an existing service (tests, REPL). *)

val count : t -> int

val primary : t -> Service.t
(** Shard 0: where document-less requests run and where front ends
    account connections. *)

val service : t -> int -> Service.t
val iter : (int -> Service.t -> unit) -> t -> unit

val shard_of_doc : t -> string -> int
val for_doc : t -> string -> Service.t

val shard_of_request : t -> Protocol.request -> int
(** The shard a request runs on: its document's shard for
    document-addressed verbs, the primary for the rest. *)

val add_document : t -> string -> Sxsi_xml.Document.t -> unit
(** Register a pre-built document on its home shard. *)

val stats : t -> (string * string) list
(** Aggregated [STATS]: counters and totals sum across shards, the
    latency and admission-wait percentiles are computed from the
    {!Sxsi_obs.Histogram.merge} of every shard's histograms, and the
    primary's key order is preserved.  Exactly {!Service.stats} with
    one shard. *)

val metrics_text : t -> string
(** The primary's exposition with one shard; with more, each shard's
    exposition under a [# shard <i>] marker (a debugging view). *)

val shutdown : t -> unit
(** {!Service.shutdown} every shard. *)
