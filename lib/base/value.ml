type t =
  | Nil
  | Bool of bool
  | Int of int
  | Str of string
  | Ref of int

let equal a b =
  match (a, b) with
  | Nil, Nil -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Str a, Str b -> String.equal a b
  | Ref a, Ref b -> a = b
  | (Nil | Bool _ | Int _ | Str _ | Ref _), _ -> false

let rank = function
  | Nil -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Ref _ -> 4

let compare a b =
  match (a, b) with
  | Nil, Nil -> 0
  | Bool a, Bool b -> Bool.compare a b
  | Int a, Int b -> Int.compare a b
  | Str a, Str b -> String.compare a b
  | Ref a, Ref b -> Int.compare a b
  | _ -> Int.compare (rank a) (rank b)

let hash = function
  | Nil -> 0x9e37
  | Bool b -> if b then 0x5bd1 else 0x85eb
  | Int i -> Hashtbl.hash (2, i)
  | Str s -> Hashtbl.hash (3, s)
  | Ref r -> Hashtbl.hash (4, r)

let is_nil = function Nil -> true | _ -> false
let lt a b = compare a b < 0
let le a b = compare a b <= 0

(* The one rendering of a value; [pp], [to_string] and the race-report
   line all go through it. Strings print as OCaml literals (what [%S]
   gives), which [parse] reads back. *)
let add_to_buffer b = function
  | Nil -> Buffer.add_string b "nil"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Ref r ->
      Buffer.add_char b '@';
      Buffer.add_string b (string_of_int r)

let to_string v =
  let b = Buffer.create 16 in
  add_to_buffer b v;
  Buffer.contents b

let pp ppf v = Fmt.string ppf (to_string v)

let parse s =
  let n = String.length s in
  if n = 0 then Error "empty value"
  else if String.equal s "nil" then Ok Nil
  else if String.equal s "true" then Ok (Bool true)
  else if String.equal s "false" then Ok (Bool false)
  else if s.[0] = '"' then
    if n >= 2 && s.[n - 1] = '"' then
      match Scanf.sscanf_opt s "%S" (fun str -> str) with
      | Some str -> Ok (Str str)
      | None -> Error (Printf.sprintf "malformed string literal %s" s)
    else Error (Printf.sprintf "unterminated string literal %s" s)
  else if s.[0] = '@' then
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some r -> Ok (Ref r)
    | None -> Error (Printf.sprintf "malformed reference %s" s)
  else
    match int_of_string_opt s with
    | Some i -> Ok (Int i)
    | None -> Error (Printf.sprintf "unrecognized value %s" s)
