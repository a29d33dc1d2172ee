(** Execution configuration: which update semantics to run, in which
    driving-table order legacy clauses process records, which pattern
    matching regime to use, which dialect to validate against, the
    query parameters, and the physical knobs (planner, parallelism,
    durability, plan cache).  Rows have a single
    representation ({!Cypher_table.Record}), so there is no row knob. *)

open Cypher_util.Maps
open Cypher_graph

(** Update semantics regime for SET / DELETE / FOREACH and for plain
    MERGE.  [Legacy] is Cypher 9's per-record behaviour (Sections 3–4);
    [Atomic] is the revised behaviour of Section 7. *)
type mode = Legacy | Atomic

(** Record-processing order used by [Legacy] clauses.  Cypher tables are
    unordered, so a correct semantics must not depend on this — the
    legacy one does (Example 3), which this knob makes observable. *)
type order = Forward | Reverse | Seeded of int

(** Pattern-matching regime.  [Isomorphic] is Cypher's: distinct
    relationship patterns bind distinct relationships (Section 2).
    [Homomorphic] lifts that restriction — the extension the paper
    announces for later Cypher versions (Section 6, Example 7). *)
type match_mode = Isomorphic | Homomorphic

(** Cost-guided match planning (anchor selection, hop orientation —
    see [Matcher.Plan]).  [Off] keeps the naive left-to-right
    enumeration, whose row *order* the legacy order-sensitivity
    experiments depend on; planning never changes the row *set*. *)
type planner = On | Off

(** Journal durability for sessions opened on a database path
    ([Cypher_storage.Store]).  [Fsync] forces the write-ahead journal to
    stable storage on every outermost commit; [Buffered] leaves flushing
    to the OS.  Irrelevant to purely in-memory sessions. *)
type durability = Fsync | Buffered

type t = {
  mode : mode;
  order : order;
  match_mode : match_mode;
  planner : planner;
  parallelism : int;
      (** Read-phase fan-out width: [0] (or [1]) runs serially, [n >= 2]
          chunks the driving table over at most [n] domains (the caller
          included) for MATCH expansion, WHERE filtering,
          UNWIND/projection row mapping and MERGE candidate
          enumeration.  Update application always stays sequential, and
          parallel output is byte-identical to serial output (see
          DESIGN.md). *)
  durability : durability;
  collect_stats : bool;
      (** Collect per-statement update counters ({!Stats}); on by
          default.  The disabled path exists so the collection overhead
          itself can be benchmarked away. *)
  dialect : Cypher_ast.Validate.dialect;
  params : Value.t Smap.t;
  plan_cache_capacity : int;
      (** Maximum number of compiled statements a {!Session} keeps in
          its LRU plan cache; [0] disables caching entirely. *)
}

(** Parses a [CYPHER_PARALLELISM]-style value: unset/empty/"0"/invalid
    mean serial, "auto" means {!Cypher_util.Pool.recommended}, a
    positive integer is the fan-out width. *)
val parallelism_of_string : string option -> int

(** The process-wide default, read once from [CYPHER_PARALLELISM] at
    startup; the baseline of every stock configuration below. *)
val default_parallelism : int

(** Cypher 9 as shipped: legacy update semantics, Figure 2–5 grammar. *)
val cypher9 : t

(** The paper's revised language: atomic semantics, Figure 10 grammar. *)
val revised : t

(** Everything the parser accepts, atomic semantics: used to experiment
    with the Section 6 proposal variants (MERGE GROUPING / WEAK /
    COLLAPSE). *)
val permissive : t

val with_order : order -> t -> t
val with_match_mode : match_mode -> t -> t
val with_planner : planner -> t -> t

(** [with_parallelism n t] sets the read-phase fan-out width (clamped
    at 0). *)
val with_parallelism : int -> t -> t

(** [with_durability d t] sets the journal durability regime. *)
val with_durability : durability -> t -> t

(** [with_stats b t] toggles update-counter collection. *)
val with_stats : bool -> t -> t
val with_params : Value.t Smap.t -> t -> t
val with_param : string -> Value.t -> t -> t

(** [with_plan_cache_capacity n t] bounds the session plan cache
    (clamped at 0; 0 disables caching). *)
val with_plan_cache_capacity : int -> t -> t

(** [arrange_rows config rows] applies the configured record order;
    identity under [Forward]. *)
val arrange_rows : t -> 'a list -> 'a list
