open Crd_base
open Crd_trace

type t = {
  index : int;
  obj : Obj_id.t;
  tid : Tid.t;
  action : Action.t;
  point : string;
  conflicting : string;
  prior : (Tid.t * Action.t) option;
}

(* The one rendering of a race line. Writing straight into the caller's
   buffer keeps a report's text to a few appends: no formatter, no
   intermediate strings beyond the integers. *)
let add_line b t =
  Buffer.add_string b "commutativity race at event ";
  Buffer.add_string b (string_of_int t.index);
  Buffer.add_string b ": T";
  Buffer.add_string b (string_of_int (Tid.to_int t.tid));
  Buffer.add_string b ": ";
  Action.add_to_buffer b t.action;
  Buffer.add_string b " [";
  Buffer.add_string b t.point;
  Buffer.add_string b " conflicts with ";
  Buffer.add_string b t.conflicting;
  Buffer.add_char b ']';
  match t.prior with
  | None -> ()
  | Some (tid, a) ->
      Buffer.add_string b " last touched by T";
      Buffer.add_string b (string_of_int (Tid.to_int tid));
      Buffer.add_string b ": ";
      Action.add_to_buffer b a

let pp ppf t =
  let b = Buffer.create 160 in
  add_line b t;
  Fmt.string ppf (Buffer.contents b)

let distinct_objects reports =
  let ids = List.sort_uniq Int.compare (List.map (fun r -> Obj_id.id r.obj) reports) in
  List.length ids

(* ------------------------------------------------------------------ *)
(* Fingerprints.                                                       *)

(* FNV-1a over 64 bits; each field is terminated by a NUL byte so that
   field boundaries shift the hash ("ab","c" <> "a","bc"). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* A plain loop keeps [h] in a register: no boxed [Int64] per byte. *)
let fnv_add_sub h s off len =
  let h = ref h in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  (* the NUL terminator: xor with 0 leaves [h] unchanged *)
  Int64.mul !h fnv_prime

let fnv_add h s = fnv_add_sub h s 0 (String.length s)

let fingerprint t =
  let prior_meth =
    match t.prior with Some (_, a) -> a.Action.meth | None -> ""
  in
  (* Normalize for symmetry: the same logical race can close from
     either end (current side touching [point], prior side having
     touched [conflicting], or the mirror image in another
     interleaving), so hash the unordered pair of (method, point)
     sides, ordered as the pairs compare. *)
  let ma = t.action.Action.meth and pa = t.point in
  let mb = prior_meth and pb = t.conflicting in
  let c = String.compare ma mb in
  let a_first = c < 0 || (c = 0 && String.compare pa pb <= 0) in
  (* Objects are named "<spec>" or "<spec>:<suffix>" by the workload
     generators and the server's spec resolution, so the spec component
     is the name up to its first ':'. *)
  let name = Obj_id.name t.obj in
  let spec_len =
    match String.index name ':' with
    | i -> i
    | exception Not_found -> String.length name
  in
  let h = fnv_add (fnv_add_sub fnv_offset name 0 spec_len) name in
  let side h m p = fnv_add (fnv_add h m) p in
  if a_first then side (side h ma pa) mb pb else side (side h mb pb) ma pa

let fingerprint_hex t = Printf.sprintf "%016Lx" (fingerprint t)

let fingerprints reports =
  List.sort_uniq Int64.unsigned_compare (List.map fingerprint reports)

let distinct reports = List.length (fingerprints reports)
