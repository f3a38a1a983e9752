(* Sharded analysis of a recorded trace: the {!Analyzer} driver fed from
   a [Trace.t], for callers that already hold one. *)

open Crd_detector
open Crd_fasttrack

type result = Analyzer.result = {
  events : int;
  shards : int;
  fell_back : bool;
  config : Analyzer.config;
  rd2_reports : Report.t list;
  rd2_stats : Rd2.stats option;
  direct_reports : Report.t list;
  direct_stats : Direct.stats option;
  fasttrack_reports : Rw_report.t list;
  fasttrack_stats : Fasttrack.stats option;
  djit_reports : Rw_report.t list;
  atomicity_violations : Crd_atomicity.Atomicity.violation list;
}

(* [analyze ~jobs ~force ~config ~spec_for trace] steps every event of
   [trace] through one analyzer and finishes it; a malformed event is an
   [Error], as a failed translation is. *)
let analyze ?jobs ?force ?config ~spec_for trace =
  let an = Analyzer.create ?config ?jobs ?force ~spec_for () in
  match Analyzer.run_trace an trace with
  | () -> Analyzer.finish an
  | exception Invalid_argument e ->
      ignore (Analyzer.finish an);
      Error e
