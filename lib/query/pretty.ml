open Ast

let atom s = if is_canonical_int s then s else "\"" ^ s ^ "\""

let scalar = function Sconst c -> atom c | Svar v -> v

let pat = function Pvar v -> v | Pwild -> "_" | Pconst c -> atom c

let tuple f xs = "<" ^ String.concat ", " (List.map f xs) ^ ">"

let cmp = function Ceq -> "==" | Cne -> "!=" | Clt -> "<"

(* levels: 0 = sum, 1 = compose, 2 = atom *)
let rec at level e =
  match e with
  | Union (a, b) -> wrap level 0 (at 0 a ^ " + " ^ at 1 b)
  | Diff (a, b) -> wrap level 0 (at 0 a ^ " - " ^ at 1 b)
  | Inter (a, b) -> wrap level 0 (at 0 a ^ " & " ^ at 1 b)
  | Compose (a, b) -> wrap level 1 (at 1 a ^ " o " ^ at 2 b)
  | Lit [] -> "[]"
  | Lit ts -> "[" ^ String.concat ", " (List.map (tuple atom) ts) ^ "]"
  | Ref n -> n
  | Comp (head, quals) ->
      "[ " ^ tuple scalar head ^ " | "
      ^ String.concat ", " (List.map qual quals)
      ^ " ]"
  | Xfilter (a, b) -> "xfilter(" ^ at 0 a ^ ", " ^ at 0 b ^ ")"
  | Xeq (a, b) -> "xeq(" ^ at 0 a ^ ", " ^ at 0 b ^ ")"

and wrap level own s = if level > own then "(" ^ s ^ ")" else s

and qual = function
  | Gen (ps, e) -> tuple pat ps ^ " <- " ^ at 0 e
  | Guard (a, c, b) -> scalar a ^ " " ^ cmp c ^ " " ^ scalar b

let expr e = at 0 e

let rows rs =
  match rs with
  | [] -> "[]"
  | rs -> "[" ^ String.concat ", " (List.map (tuple atom) rs) ^ "]"
