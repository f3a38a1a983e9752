open Crd

let fig1 ~hosts sink =
  Sched.run ~seed:42L ~sink (fun () ->
      let o = Monitored.Dict.create ~name:"dictionary:o" () in
      List.iteri
        (fun i host ->
          ignore
            (Sched.fork (fun () ->
                 ignore (Monitored.Dict.put o (Value.Str host) (Value.Ref i)))))
        hosts;
      Sched.join_all ();
      ignore (Monitored.Dict.size o))

let finish an =
  match Analyzer.finish an with Ok r -> r | Error e -> Alcotest.fail e

let end_to_end_fig1 () =
  let an = Analyzer.with_stdspecs () in
  fig1 ~hosts:[ "a.com"; "a.com"; "b.com" ] (Analyzer.sink an);
  let races = (finish an).rd2_reports in
  Alcotest.(check int) "one commutativity race" 1 (List.length races);
  Alcotest.(check int) "one racing object" 1 (Report.distinct_objects races)

let end_to_end_clean () =
  let an = Analyzer.with_stdspecs () in
  fig1 ~hosts:[ "a.com"; "b.com"; "c.com" ] (Analyzer.sink an);
  Alcotest.(check int) "no races" 0 (List.length (finish an).rd2_reports)

let naming_convention () =
  let an = Analyzer.with_stdspecs () in
  (* An object with an unknown prefix is not monitored. *)
  Sched.run ~sink:(Analyzer.sink an) (fun () ->
      let o = Monitored.Dict.create ~name:"unknown:thing" () in
      ignore (Sched.fork (fun () -> ignore (Monitored.Dict.put o (Value.Int 1) (Value.Int 2))));
      ignore (Monitored.Dict.put o (Value.Int 1) (Value.Int 3)));
  Alcotest.(check int) "not monitored" 0 (List.length (finish an).rd2_reports)

let config_off () =
  let an =
    Analyzer.with_stdspecs
      ~config:{ Analyzer.rd2 = `Off; direct = false; fasttrack = false; djit = false; atomicity = false }
      ()
  in
  fig1 ~hosts:[ "a.com"; "a.com" ] (Analyzer.sink an);
  let res = finish an in
  Alcotest.(check int) "rd2 off" 0 (List.length res.rd2_reports);
  Alcotest.(check bool) "no stats" true (res.rd2_stats = None)

let direct_and_linear_agree () =
  let run config =
    let an = Analyzer.with_stdspecs ~config () in
    fig1 ~hosts:[ "a.com"; "a.com"; "b.com"; "b.com" ] (Analyzer.sink an);
    finish an
  in
  let base = { Analyzer.rd2 = `Constant; direct = true; fasttrack = false; djit = false; atomicity = false } in
  let an1 = run base in
  let an2 = run { base with Analyzer.rd2 = `Linear } in
  let indices races = List.sort_uniq compare (List.map (fun (r : Report.t) -> r.index) races) in
  Alcotest.(check (list int)) "constant = direct"
    (indices an1.rd2_reports)
    (indices an1.direct_reports);
  Alcotest.(check (list int)) "constant = linear"
    (indices an1.rd2_reports)
    (indices an2.rd2_reports)

let djit_mirrors_fasttrack () =
  let an =
    Analyzer.with_stdspecs
      ~config:{ Analyzer.rd2 = `Off; direct = false; fasttrack = true; djit = true; atomicity = false }
      ()
  in
  Sched.run ~sink:(Analyzer.sink an) (fun () ->
      let c = Monitored.Shared.create ~name:"c" 0 in
      ignore (Sched.fork (fun () -> Monitored.Shared.update c succ));
      Monitored.Shared.update c succ;
      Sched.join_all ());
  let res = finish an in
  Alcotest.(check bool) "fasttrack found the update race" true
    (res.fasttrack_reports <> []);
  Alcotest.(check bool) "djit agrees it exists" true (res.djit_reports <> [])

let run_trace_from_text () =
  let trace =
    Result.get_ok
      (Trace_text.parse
         "T0 fork T1\n\
          T1 call dictionary.put(1, 2) / nil\n\
          T0 call dictionary.put(1, 3) / nil\n")
  in
  let an = Analyzer.with_stdspecs () in
  Analyzer.run_trace an trace;
  Alcotest.(check int) "events" 3 (Analyzer.events an);
  Alcotest.(check int) "race found" 1 (List.length (finish an).rd2_reports)

let bad_spec_surfaces () =
  (* A non-ECL spec must fail loudly when RD2 needs it. *)
  let w = Signature.make ~meth:"write" ~args:[ "v" ] () in
  let r = Signature.make ~meth:"read" ~rets:[ "v" ] () in
  let phi =
    Formula.Atom
      {
        Atom.pred = Atom.Eq;
        lhs = Atom.Var { Atom.side = Atom.Side.Fst; slot = 0; name = "v1" };
        rhs = Atom.Var { Atom.side = Atom.Side.Snd; slot = 0; name = "v2" };
      }
  in
  let spec =
    Result.get_ok (Spec.make ~name:"reg" ~methods:[ w; r ] [ ("write", "read", phi) ])
  in
  let obj = Obj_id.make ~name:"reg" 0 in
  let ev =
    Event.call Tid.main (Action.make ~obj ~meth:"write" ~args:[ Value.Int 1 ] ())
  in
  let error jobs =
    let an =
      Analyzer.create ~jobs ~force:true
        ~config:{ Analyzer.rd2 = `Constant; direct = false; fasttrack = false; djit = false; atomicity = false }
        ~spec_for:(fun _ -> Some spec)
        ()
    in
    Analyzer.step an ev;
    match Analyzer.finish an with
    | Error e -> e
    | Ok _ -> Alcotest.failf "jobs=%d: expected a translation failure" jobs
  in
  let e1 = error 1 in
  Alcotest.(check bool) ("names the spec: " ^ e1) true
    (String.starts_with ~prefix:"spec reg:" e1);
  Alcotest.(check string) "same error at jobs 2" e1 (error 2)

(* A call its specification does not know is the same clean [Error] at
   every jobs value, whether the inline bundle or a shard domain meets
   it. *)
let malformed_event_same_error () =
  let trace =
    Result.get_ok
      (Trace_text.parse
         "T0 fork T1\nT1 call \"dictionary:o\".frobnicate(\"x\") / nil\nT0 join T1\n")
  in
  let error jobs =
    match
      Shard.analyze ~jobs ~force:true ~spec_for:Stdspecs.spec_for trace
    with
    | Error e -> e
    | Ok _ -> Alcotest.failf "jobs=%d: malformed event accepted" jobs
  in
  let e1 = error 1 in
  Alcotest.(check bool) ("Repr.eta error: " ^ e1) true
    (String.starts_with ~prefix:"Repr.eta" e1);
  Alcotest.(check string) "same error in a shard domain" e1 (error 2)

let summary_prints () =
  let an = Analyzer.with_stdspecs () in
  fig1 ~hosts:[ "a.com"; "a.com" ] (Analyzer.sink an);
  let s = Fmt.str "%a" Analyzer.pp_summary (finish an) in
  Alcotest.(check bool) "mentions rd2" true
    (String.length s > 0
    && String.split_on_char '\n' s
       |> List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "rd2:"))

(* Sharded analysis is exact: on workload traces the merged per-shard
   reports equal the recorded trace analyzed at jobs=1, which equals the
   analyzer fed live by the schedule, report for report (same order, same
   contents), and the summary reads the same at every jobs value. *)
let sharded_matches_sequential () =
  let module W = Crd_workloads in
  let config =
    { Analyzer.rd2 = `Constant; direct = false; fasttrack = true; djit = false; atomicity = false }
  in
  (* Record the trace while a live analyzer hears the same events. *)
  let record f =
    let trace = Trace.create () in
    let live = Analyzer.with_stdspecs ~config () in
    f (fun e ->
        Trace.append trace e;
        Analyzer.sink live e);
    (trace, finish live)
  in
  let runs =
    [
      ( "circuit",
        record (fun sink ->
            ignore (W.Polepos.run (List.hd W.Polepos.all) ~seed:1L ~scale:1 ~sink ())) );
      ("snitch", record (fun sink -> ignore (W.Snitch.run ~seed:1L ~sink ())));
    ]
  in
  List.iter
    (fun (name, (trace, (live : Analyzer.result))) ->
      let seq =
        Result.get_ok
          (Shard.analyze ~jobs:1 ~config ~spec_for:Stdspecs.spec_for trace)
      in
      let par =
        Result.get_ok
          (Shard.analyze ~jobs:4 ~force:true ~config ~spec_for:Stdspecs.spec_for
             trace)
      in
      Alcotest.(check bool)
        (name ^ ": jobs=4 rd2 == jobs=1") true
        (par.Shard.rd2_reports = seq.Shard.rd2_reports);
      Alcotest.(check bool)
        (name ^ ": jobs=4 fasttrack == jobs=1") true
        (par.Shard.fasttrack_reports = seq.Shard.fasttrack_reports);
      Alcotest.(check bool)
        (name ^ ": sharded rd2 == live analyzer") true
        (seq.Shard.rd2_reports = live.rd2_reports);
      Alcotest.(check bool)
        (name ^ ": sharded fasttrack == live analyzer") true
        (seq.Shard.fasttrack_reports = live.fasttrack_reports);
      let races st = Option.map (fun (s : Rd2.stats) -> s.Rd2.races) st in
      Alcotest.(check (option int))
        (name ^ ": summed race stat matches") (races live.rd2_stats)
        (races par.Shard.rd2_stats);
      Alcotest.(check string)
        (name ^ ": one summary at every jobs")
        (Fmt.str "%a" Analyzer.pp_summary live)
        (Fmt.str "%a" Analyzer.pp_summary par))
    runs

let suite =
  ( "analyzer",
    [
      Alcotest.test_case "fig1 end-to-end" `Quick end_to_end_fig1;
      Alcotest.test_case "clean run" `Quick end_to_end_clean;
      Alcotest.test_case "naming convention" `Quick naming_convention;
      Alcotest.test_case "rd2 off" `Quick config_off;
      Alcotest.test_case "constant/linear/direct agree" `Quick
        direct_and_linear_agree;
      Alcotest.test_case "djit mirrors fasttrack" `Quick djit_mirrors_fasttrack;
      Alcotest.test_case "run_trace from text" `Quick run_trace_from_text;
      Alcotest.test_case "bad spec surfaces" `Quick bad_spec_surfaces;
      Alcotest.test_case "malformed event: same error at every jobs" `Quick
        malformed_event_same_error;
      Alcotest.test_case "summary prints" `Quick summary_prints;
      Alcotest.test_case "sharded == sequential == live" `Quick
        sharded_matches_sequential;
    ] )
