(** End-to-end dynamic analysis sessions.

    An analyzer owns one happens-before engine (Table 1) and any
    combination of attached detectors:

    - {b rd2} — the commutativity race detector of Algorithm 1, fed by
      [Call] events (in constant-lookup or linear-scan mode);
    - {b direct} — the naive specification-level detector (Section 5.1);
    - {b fasttrack} / {b djit} — read-write detectors fed by
      [Read]/[Write] events.

    Events can come from a recorded {!Crd_trace.Trace.t}, from a parsed
    trace file, or live from {!Crd_runtime.Sched.run} via [sink]. *)

open Crd_base
open Crd_trace
open Crd_spec
open Crd_detector
open Crd_fasttrack

type config = {
  rd2 : [ `Off | `Constant | `Linear ];
  direct : bool;
  fasttrack : bool;
  djit : bool;
  atomicity : bool;  (** the access-point atomicity checker *)
}

val default_config : config
(** RD2 in constant mode and FastTrack on; direct and DJIT+ off. *)

type t

val create :
  ?config:config -> spec_for:(Obj_id.t -> Spec.t option) -> unit -> (t, string) result
(** [spec_for] assigns a commutativity specification to each monitored
    object (objects mapping to [None] are ignored by the commutativity
    detectors). Each distinct specification is translated to its access
    point representation once; translation failures (non-ECL
    specifications) surface here unless RD2 is [`Off]. *)

val with_stdspecs : ?config:config -> unit -> t
(** An analyzer that resolves specifications by monitored-object naming
    convention: an object named [<spec>:<anything>] or exactly [<spec>]
    uses the built-in specification [<spec>] (e.g. ["dictionary:chunks"]).
    @raise Invalid_argument if the built-in specifications fail to
    translate (they do not). *)

val step : t -> Event.t -> unit
val sink : t -> Event.t -> unit
(** Same as {!step}; shaped for [Sched.run ~sink]. *)

val run_trace : t -> Trace.t -> unit
val events : t -> int
(** Events processed. *)

val publish_stats : t -> unit
(** Fold this analyzer's RD2 counters into the process-wide
    {!Crd_obs.default} registry ([rd2_actions_total],
    [rd2_same_epoch_total], [rd2_promotions_total], [rd2_races_total],
    ...). Call once when the session is over; further calls are
    no-ops, so totals are never double counted. Events are counted
    into [analyzer_events_total] live by {!step} regardless. *)

val rd2_races : t -> Report.t list
val rd2_stats : t -> Rd2.stats option
val direct_races : t -> Report.t list
val direct_stats : t -> Direct.stats option
val fasttrack_races : t -> Rw_report.t list
val fasttrack_stats : t -> Fasttrack.stats option
val djit_races : t -> Rw_report.t list
val atomicity_violations : t -> Crd_atomicity.Atomicity.violation list

val pp_summary : t Fmt.t
(** A Table 2-style one-analyzer summary: races total (distinct). *)

val pp_summary_with : rd2_distinct:int -> t Fmt.t
(** [pp_summary] for a caller that already holds
    [Report.distinct (rd2_races t)]: the races are not fingerprinted a
    second time. *)
