open Crd_base

type t = { obj : Obj_id.t; meth : string; args : Value.t list; rets : Value.t list }

let make ~obj ~meth ?(args = []) ?(rets = []) () = { obj; meth; args; rets }
let slots t = t.args @ t.rets
let arity t = List.length t.args + List.length t.rets

let equal a b =
  Obj_id.equal a.obj b.obj
  && String.equal a.meth b.meth
  && List.equal Value.equal a.args b.args
  && List.equal Value.equal a.rets b.rets

(* "o.m(a1, a2)", then "/r" for one return value or "/(r1, r2)" for
   several. *)
let rec add_vals b = function
  | [] -> ()
  | [ v ] -> Value.add_to_buffer b v
  | v :: vs ->
      Value.add_to_buffer b v;
      Buffer.add_string b ", ";
      add_vals b vs

let add_to_buffer b t =
  Buffer.add_string b (Obj_id.name t.obj);
  Buffer.add_char b '.';
  Buffer.add_string b t.meth;
  Buffer.add_char b '(';
  add_vals b t.args;
  Buffer.add_char b ')';
  match t.rets with
  | [] -> ()
  | [ r ] ->
      Buffer.add_char b '/';
      Value.add_to_buffer b r
  | rs ->
      Buffer.add_string b "/(";
      add_vals b rs;
      Buffer.add_char b ')'

let to_string t =
  let b = Buffer.create 32 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Fmt.string ppf (to_string t)
