(* The race-report path: the buffered race-line renderer and the
   allocation-free fingerprint against copies of the Fmt printer and the
   closure FNV they replaced, the per-object description memo of RD2,
   and `rd2 check -v` output across --jobs. *)

open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Oracles: the printer and fingerprint as they were written with Fmt  *)
(* and a closure-captured Int64 ref.                                   *)
(* ------------------------------------------------------------------ *)

let oracle_value ppf = function
  | Value.Nil -> Fmt.string ppf "nil"
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Int i -> Fmt.int ppf i
  | Value.Str s -> Fmt.pf ppf "%S" s
  | Value.Ref r -> Fmt.pf ppf "@@%d" r

let oracle_tid ppf t = Fmt.pf ppf "T%d" (Tid.to_int t)

let oracle_action ppf (t : Action.t) =
  let pp_vals = Fmt.(list ~sep:(any ", ") oracle_value) in
  Fmt.pf ppf "%s.%s(%a)" (Obj_id.name t.obj) t.meth pp_vals t.args;
  match t.rets with
  | [] -> ()
  | [ r ] -> Fmt.pf ppf "/%a" oracle_value r
  | rs -> Fmt.pf ppf "/(%a)" pp_vals rs

let oracle_line ppf (t : Report.t) =
  Fmt.pf ppf "commutativity race at event %d: %a: %a [%s conflicts with %s]"
    t.index oracle_tid t.tid oracle_action t.action t.point t.conflicting;
  match t.prior with
  | None -> ()
  | Some (tid, a) ->
      Fmt.pf ppf " last touched by %a: %a" oracle_tid tid oracle_action a

let oracle_fnv_add h s =
  let h = ref h in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L in
  String.iter (fun c -> mix (Char.code c)) s;
  mix 0;
  !h

let oracle_fingerprint (t : Report.t) =
  let prior_meth =
    match t.prior with Some (_, a) -> a.Action.meth | None -> ""
  in
  let side_a = (t.action.Action.meth, t.point) in
  let side_b = (prior_meth, t.conflicting) in
  let (m1, p1), (m2, p2) =
    if compare side_a side_b <= 0 then (side_a, side_b) else (side_b, side_a)
  in
  let name = Obj_id.name t.obj in
  let spec =
    match String.index_opt name ':' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  List.fold_left oracle_fnv_add 0xcbf29ce484222325L
    [ spec; name; m1; p1; m2; p2 ]

(* ------------------------------------------------------------------ *)
(* Generators: every value kind, strings that need escaping, bytes     *)
(* >= 0x80, names with and without a spec prefix.                      *)
(* ------------------------------------------------------------------ *)

let char =
  Gen.oneof
    [ Gen.char; Gen.oneofl [ '"'; '\\'; '\n'; '\t'; '\x00'; '\x80'; '\xff'; ':'; 'a' ] ]

let str = Gen.string_size ~gen:char (Gen.int_range 0 12)

let value =
  Gen.oneof
    [
      Gen.return Value.Nil;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun i -> Value.Int i) Gen.int;
      Gen.map (fun i -> Value.Int i) (Gen.int_range (-3) 3);
      Gen.map (fun s -> Value.Str s) str;
      Gen.map (fun r -> Value.Ref r) Gen.nat;
    ]

let values = Gen.list_size (Gen.int_range 0 3) value

let action =
  Gen.map
    (fun (name, meth, args, rets) ->
      Action.make ~obj:(Obj_id.make ~name 0) ~meth ~args ~rets ())
    (Gen.quad
       (Gen.oneof [ str; Gen.map (fun s -> "dictionary:" ^ s) str ])
       str values values)

let report =
  Gen.map
    (fun ((index, tid, act, point), (conflicting, prior)) ->
      {
        Report.index;
        obj = act.Action.obj;
        tid = Tid.of_int tid;
        action = act;
        point;
        conflicting;
        prior;
      })
    (Gen.pair
       (Gen.quad Gen.nat (Gen.int_range 0 64) action str)
       (Gen.pair str
          (Gen.opt
             (Gen.map (fun (t, a) -> (Tid.of_int t, a))
                (Gen.pair (Gen.int_range 0 64) action)))))

let add_line_matches_oracle r =
  let b = Buffer.create 16 in
  Report.add_line b r;
  String.equal (Buffer.contents b) (Fmt.str "%a" oracle_line r)
  && String.equal (Fmt.str "%a" Report.pp r) (Fmt.str "%a" oracle_line r)

let fixed_lines () =
  let obj = Obj_id.make ~name:"dictionary:s0" 3 in
  let act args rets = Action.make ~obj ~meth:"put" ~args ~rets () in
  let r action prior =
    {
      Report.index = 42;
      obj;
      tid = Tid.of_int 4;
      action;
      point = "put:k[12]";
      conflicting = "size:ds";
      prior;
    }
  in
  List.iter
    (fun rep ->
      let b = Buffer.create 16 in
      Report.add_line b rep;
      Alcotest.(check string) "add_line = oracle" (Fmt.str "%a" oracle_line rep)
        (Buffer.contents b))
    [
      r (act [] []) None;
      r (act [ Value.Int (-7) ] [ Value.Nil ]) None;
      r
        (act [ Value.Str "q\"b\\s\x80\xff"; Value.Bool true ] [ Value.Ref 3; Value.Int 0 ])
        (Some (Tid.of_int 1, act [ Value.Bool false ] [ Value.Str "" ]));
    ];
  Alcotest.(check string) "a known line"
    "commutativity race at event 42: T4: dictionary:s0.put(12, 6)/15 \
     [put:k[12] conflicts with size:ds] last touched by T1: \
     dictionary:s0.put(12, 15)/nil"
    (Fmt.str "%a" Report.pp
       (r
          (act [ Value.Int 12; Value.Int 6 ] [ Value.Int 15 ])
          (Some (Tid.of_int 1, act [ Value.Int 12; Value.Int 15 ] [ Value.Nil ]))))

(* ------------------------------------------------------------------ *)
(* The description memo                                                *)
(* ------------------------------------------------------------------ *)

let dict_repr = Result.get_ok (Repr.of_spec (Stdspecs.dictionary ()))

let run_rd2 src =
  let trace = Result.get_ok (Trace_text.parse src) in
  let hb = Hb.create () in
  let d = Rd2.create ~repr_for:(fun _ -> Some dict_repr) () in
  let obj = ref None in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a ->
          obj := Some a.Action.obj;
          ignore (Rd2.on_action d ~index e.tid a vc)
      | _ -> ());
  (d, Option.get !obj)

(* Three concurrent puts on one key: every race after the first
   describes the same keyed point, and must reuse its string. *)
let same_point_shares_description () =
  let d, obj =
    run_rd2
      "T0 fork T1\n\
       T0 fork T2\n\
       T0 fork T3\n\
       T1 call dictionary.put(\"k\", 1) / nil\n\
       T2 call dictionary.put(\"k\", 2) / 1\n\
       T3 call dictionary.put(\"k\", 3) / 2\n"
  in
  let races = Rd2.races d in
  let descs =
    List.concat_map (fun r -> [ r.Report.point; r.Report.conflicting ]) races
  in
  let keyed = List.filter (fun s -> String.contains s '[') descs in
  Alcotest.(check bool) "at least two keyed descriptions" true
    (List.length keyed >= 2);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if String.equal a b then
            Alcotest.(check bool)
              (Printf.sprintf "%S is one physical string" a)
              true (a == b))
        descs)
    descs;
  Alcotest.(check bool) "memo created by the first race" true
    (match Rd2.described_points d obj with Some n -> n >= 1 | None -> false)

let race_free_run_has_no_memo () =
  let d, obj =
    run_rd2
      "T0 call dictionary.put(\"k\", 1) / nil\n\
       T0 call dictionary.put(\"j\", 2) / nil\n\
       T0 call dictionary.get(\"k\") / 1\n\
       T0 call dictionary.size() / 2\n"
  in
  Alcotest.(check int) "no race" 0 (List.length (Rd2.races d));
  Alcotest.(check (option int)) "no memo table" None
    (Rd2.described_points d obj)

(* ------------------------------------------------------------------ *)
(* rd2 check across --jobs                                             *)
(* ------------------------------------------------------------------ *)

let rd2_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "..")
    (Filename.concat "bin" "rd2.exe")

(* Run rd2; its exit status, stdout and stderr. *)
let exec_rd2 args =
  let out = Filename.temp_file "crd-report" ".out" in
  let err = Filename.temp_file "crd-report" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let open_w f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let fd = open_w out and efd = open_w err in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close fd;
            Unix.close efd)
          (fun () ->
            Unix.create_process rd2_exe
              (Array.of_list ("rd2" :: args))
              Unix.stdin fd efd)
      in
      let status = snd (Unix.waitpid [] pid) in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (status, read out, read err))

let run_rd2_exe args =
  match exec_rd2 args with
  | Unix.WEXITED 0, out, _ -> out
  | _, _, err -> Alcotest.failf "rd2 %s failed: %s" (String.concat " " args) err

(* A specification outside ECL fails translation with one clean message
   and exit 124 at every jobs value, never as an uncaught exception. *)
let check_spec_error_jobs_identical () =
  let spec = Filename.temp_file "crd-report" ".crd" in
  let trace = Filename.temp_file "crd-report" ".trace" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove spec;
      Sys.remove trace)
    (fun () ->
      Out_channel.with_open_text spec (fun oc ->
          output_string oc
            "object reg {\n\
            \  method write(v);\n\
            \  method read() / v;\n\
            \  commutes write(v1) <> read() / v2 when v1 == v2;\n\
             }\n");
      Out_channel.with_open_text trace (fun oc ->
          output_string oc
            "T0 fork T1\nT1 call reg.write(1) / nil\nT0 call reg.read() / 1\n");
      let run jobs =
        match exec_rd2 [ "check"; "--spec"; spec; trace; "--jobs"; jobs ] with
        | Unix.WEXITED code, out, err -> (code, out, err)
        | _ -> Alcotest.failf "rd2 check --jobs %s was killed" jobs
      in
      let code1, out1, err1 = run "1" in
      Alcotest.(check int) "exit 124 at jobs 1" 124 code1;
      Alcotest.(check string) "nothing on stdout" "" out1;
      Alcotest.(check bool)
        (Printf.sprintf "names the spec (%s)" err1)
        true
        (String.starts_with ~prefix:"rd2: spec reg: " err1);
      Alcotest.(check (triple int string string))
        "jobs 2 = jobs 1" (code1, out1, err1) (run "2"))

let check_output_jobs_identical () =
  let trace = Filename.temp_file "crd-report" ".ctrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      ignore
        (run_rd2_exe
           [ "synth"; "-n"; "20000"; "--seed"; "5"; "--format"; "bin"; "-o"; trace ]);
      let check = [ "check"; "-v"; "--fingerprints"; "--format"; "bin"; trace ] in
      (* The whole stdout, summary included, is the same at every jobs. *)
      let seq = run_rd2_exe check in
      let par = run_rd2_exe (check @ [ "--jobs"; "2"; "--force-parallel" ]) in
      let lines s = List.length (String.split_on_char '\n' s) in
      Alcotest.(check bool) "thousands of race lines" true (lines seq > 2000);
      Alcotest.(check string) "jobs=1 = jobs=2 --force-parallel" seq par)

let suite =
  ( "report",
    [
      Alcotest.test_case "known race lines" `Quick fixed_lines;
      qcheck "add_line = Fmt oracle" ~count:1000 report add_line_matches_oracle;
      qcheck "fingerprint = closure-FNV oracle" ~count:1000 report (fun r ->
          Int64.equal (Report.fingerprint r) (oracle_fingerprint r));
      qcheck "fingerprints sorted as their hex"
        (Gen.list_size (Gen.int_range 0 20) report)
        (fun rs ->
          List.map (Printf.sprintf "%016Lx") (Report.fingerprints rs)
          = List.sort_uniq String.compare (List.map Report.fingerprint_hex rs));
      Alcotest.test_case "same point shares one description" `Quick
        same_point_shares_description;
      Alcotest.test_case "race-free run makes no memo" `Quick
        race_free_run_has_no_memo;
      Alcotest.test_case "check -v: jobs 1 = jobs 2" `Quick
        check_output_jobs_identical;
      Alcotest.test_case "check: spec error same at every jobs" `Quick
        check_spec_error_jobs_identical;
    ] )
