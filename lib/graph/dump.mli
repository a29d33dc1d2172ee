(** Serialisation of a property graph to an equivalent Cypher script,
    and the reader that decodes it back.

    [to_cypher g] produces a single CREATE statement that rebuilds [g]
    (up to entity ids, under a monotone id mapping) when executed on the
    empty graph — the repository analogue of a database dump and the
    body of snapshot files.  Round-trip exactness (dump → parse →
    execute → {!Iso.isomorphic}) holds for every storable graph and is
    fuzz-tested; see DESIGN.md.

    {!of_cypher} and {!read_value} read exactly the grammar the writer
    emits, without the query front end: storage decodes its own images
    with them.  They build what executing the script or evaluating the
    literal would. *)

(** @raise Invalid_argument on a graph with dangling relationships or
    entity-valued properties — neither is expressible as a Cypher
    script. *)
val to_cypher : Graph.t -> string

(** [add_cypher buf g] appends [to_cypher g] to [buf], raising as it does. *)
val add_cypher : Buffer.t -> Graph.t -> unit

(** [value_literal v] is a Cypher expression evaluating back to exactly
    [v] (floats reparse bit-exactly; [nan]/[±inf] and [min_int], which
    have no literals, render as constant expressions).
    @raise Invalid_argument on [Node]/[Rel]/[Path] values. *)
val value_literal : Value.t -> string

(** [add_props buf p] appends [value_literal (Props.to_value p)] to
    [buf]: the map literal of [p], in key order. *)
val add_props : Buffer.t -> Props.t -> unit

(** [quote_ident s] backtick-quotes [s] unless it is a plain identifier;
    embedded backticks are doubled. *)
val quote_ident : string -> string

(** The nan {!read_value} and {!of_cypher} read for [(0.0 / 0.0)], the
    only spelling of a nan: the one evaluating that expression gives,
    whose sign bit is the platform's. *)
val nan : float

(** [read_value s] is the value the literal [s] denotes — the inverse of
    {!value_literal}, so [read_value (value_literal v) = Ok v] (every
    nan reads back as {!nan}).  [Error] on anything outside the literal
    grammar, including bad escapes, duplicate map keys, unterminated
    input and trailing bytes; never raises.  Names and scalars are built
    through [share] (default: a fresh table), so a caller decoding many
    literals into one graph can store each repeat once. *)
val read_value : ?share:Share.t -> string -> (Value.t, string) result

(** [read_ident s pos] reads one identifier as {!quote_ident} writes it,
    after optional whitespace from byte [pos], and returns it with the
    offset just past it.  [Error] when none starts there; never
    raises. *)
val read_ident : string -> int -> (string * int, string) result

(** [of_cypher ?pos g s] applies the script [s] (from byte [pos],
    default 0), as written by {!to_cypher}, to [g]: entities get the
    ids creating them in file order would give, and the whole script is
    added in one {!Graph.add_batch}, so the graph, its ids and
    {!Graph.next_id} match executing the script as a CREATE statement
    on [g].  A blank script leaves [g] unchanged.  Equal label sets,
    names and [Int]/[String]/[Bool] values are stored once
    ({!Share}).
    [Error] on anything outside the grammar — an unbound or rebound node
    variable, a relationship endpoint carrying labels or properties, a
    malformed value, trailing bytes; never raises. *)
val of_cypher : ?pos:int -> Graph.t -> string -> (Graph.t, string) result
