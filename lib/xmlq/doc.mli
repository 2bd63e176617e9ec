(** XML documents: trees, serialization, parsing, and the Section 4
    instance encoding.

    The paper represents a SET-EQUALITY instance
    [x1#…#xm#y1#…#ym#] as

    {v <instance> <set1> <item><string>x1</string></item> … </set1>
                  <set2> <item><string>y1</string></item> … </set2>
       </instance> v}

    and evaluates XPath/XQuery queries against the serialized stream. *)

type t = Element of string * t list | Text of string

val element : string -> t list -> t
(** @raise Invalid_argument on an invalid name (must be nonempty,
    [\[A-Za-z\]\[A-Za-z0-9\]*]). *)

val text : string -> t

val serialize : t -> string
(** Tag-and-text serialization, e.g.
    ["<a><b>hi</b></a>"]. Text content is emitted raw — instance
    strings are over [{0,1}], so no escaping is needed; {!parse}
    rejects markup characters in text. *)

val stream_length : t -> int
(** Length of the serialized stream — the [N] of Theorems 12/13. *)

val parse : string -> t
(** Inverse of {!serialize}.
    @raise Invalid_argument on malformed input (unbalanced or mismatched
    tags, stray ['<'/'>'], multiple roots, empty input). *)

val of_instance : Problems.Instance.t -> t
(** The Section 4 encoding. *)

val to_instance : t -> Problems.Instance.t
(** Inverse of {!of_instance}.
    @raise Invalid_argument if the document does not have the
    instance/set1/set2 shape. *)

val string_value : t -> string
(** Concatenated text content, in document order (the XPath
    string-value of the node). *)

