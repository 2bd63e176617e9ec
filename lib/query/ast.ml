(* Abstract syntax of the list-relation query language (the Rascal
   ListRelation design adapted to the paper's workloads). Atoms are
   strings over a safe charset shared with the XML document layer;
   integers are just atoms whose spelling is canonical-numeric. *)

type cmp = Ceq | Cne | Clt

type scalar =
  | Sconst of string  (* atom: bare integer or quoted string *)
  | Svar of string  (* comprehension variable *)

type pat =
  | Pvar of string
  | Pwild  (* _ *)
  | Pconst of string

type expr =
  | Lit of string list list  (* [<1,10>, <2,20>]; [] is the empty unary relation *)
  | Ref of string  (* named relation *)
  | Union of expr * expr  (* a + b *)
  | Diff of expr * expr  (* a - b *)
  | Inter of expr * expr  (* a & b *)
  | Compose of expr * expr  (* a o b — binary relation composition *)
  | Comp of scalar list * qual list  (* [ <head> | quals ] *)
  | Xfilter of expr * expr  (* xfilter(a,b): some a-atom missing from b (Thm 13) *)
  | Xeq of expr * expr  (* xeq(a,b): equal as sets (Thm 12) *)

and qual =
  | Gen of pat list * expr  (* <pats> <- e *)
  | Guard of scalar * cmp * scalar  (* s == s | s != s | s < s *)

type stmt = Bind of string * expr | Eval of expr

type program = stmt list

(* The language's atom alphabet. Deliberately excludes angle brackets,
   ampersands, double quotes and NUL so every atom can flow into
   relalg's NUL-joined tuple encoding and the XML document stream
   unescaped. *)
let atom_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

(* Atoms spelled like canonical integers print bare (and re-lex as
   INT); everything else prints quoted. Bounded length keeps the
   spelling unambiguous without bignum concerns. *)
let is_canonical_int s =
  let n = String.length s in
  n > 0 && n <= 18
  && String.for_all (fun c -> c >= '0' && c <= '9') s
  && (n = 1 || s.[0] <> '0')

let reserved = [ "o"; "xfilter"; "xeq"; "_" ]
