(** Execution configuration: which update semantics to run, in which
    driving-table order legacy clauses process records, which dialect to
    validate against, the query parameters, and the physical knobs
    (planner, parallelism, durability, plan cache). *)

open Cypher_util.Maps
open Cypher_graph

(** Update semantics regime for SET / DELETE / FOREACH and for plain
    MERGE.  [Legacy] is Cypher 9's per-record behaviour (Section 3–4);
    [Atomic] is the revised behaviour of Section 7. *)
type mode = Legacy | Atomic

(** Record-processing order used by [Legacy] clauses.  Cypher tables are
    unordered, so a correct semantics must not depend on this — the
    legacy one does (Example 3), which this knob makes observable. *)
type order = Forward | Reverse | Seeded of int

(** Pattern-matching regime.  [Isomorphic] is Cypher's: distinct
    relationship patterns bind distinct relationships (Section 2).
    [Homomorphic] lifts that restriction — the extension the paper
    announces for later Cypher versions (Section 6, Example 7), under
    which Strong Collapse is "a very natural choice".  Variable-length
    steps remain edge-distinct within their own walk so that outputs
    stay finite. *)
type match_mode = Isomorphic | Homomorphic

(** Cost-guided match planning (anchor selection, hop orientation —
    see [Matcher.Plan]).  [Off] keeps the naive left-to-right
    enumeration, whose row *order* the legacy order-sensitivity
    experiments depend on; planning never changes the row *set*. *)
type planner = On | Off

(** Journal durability for sessions opened on a database path
    ([Cypher_storage.Store]).  [Fsync] forces the write-ahead journal to
    stable storage on every outermost commit; [Buffered] leaves flushing
    to the OS (fast, loses the tail of the journal on a machine crash —
    never on a process crash).  Irrelevant to purely in-memory
    sessions. *)
type durability = Fsync | Buffered

type t = {
  mode : mode;
  order : order;
  match_mode : match_mode;
  planner : planner;
  parallelism : int;
  durability : durability;
  collect_stats : bool;
      (** collect per-statement update counters ({!Stats}); on by
          default — the disabled path exists for benchmarking the
          collection overhead away *)
  dialect : Cypher_ast.Validate.dialect;
  params : Value.t Smap.t;
  plan_cache_capacity : int;
      (** maximum number of compiled statements a {!Session} keeps in
          its LRU plan cache; [0] disables caching entirely *)
}

(** Parses a [CYPHER_PARALLELISM]-style value: unset/empty/"0"/invalid
    mean serial, "auto" means {!Cypher_util.Pool.recommended}, and a
    positive integer is the fan-out width (the calling domain counts). *)
let parallelism_of_string = function
  | None | Some "" | Some "0" -> 0
  | Some "auto" -> Cypher_util.Pool.recommended ()
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 0)

(** Process-wide default, read once from [CYPHER_PARALLELISM] at
    startup: every stock configuration below starts from it, so
    [CYPHER_PARALLELISM=4 dune exec ...] parallelises the read phases
    without any code change.  Unset means serial — parallel-on is
    byte-identical to parallel-off (see DESIGN.md), but spawning
    domains for small inputs is a cost the caller should opt into. *)
let default_parallelism =
  parallelism_of_string (Sys.getenv_opt "CYPHER_PARALLELISM")

(** Cypher 9 as shipped: legacy update semantics, Figure 2–5 grammar,
    naive matching (its order-sensitive behaviours stay reproducible). *)
let cypher9 =
  { mode = Legacy; order = Forward; match_mode = Isomorphic; planner = Off;
    parallelism = default_parallelism; durability = Fsync; collect_stats = true;
    dialect = Cypher_ast.Validate.Cypher9; params = Smap.empty;
    plan_cache_capacity = 128 }

(** The paper's revised language: atomic semantics, Figure 10 grammar. *)
let revised =
  { mode = Atomic; order = Forward; match_mode = Isomorphic; planner = On;
    parallelism = default_parallelism; durability = Fsync; collect_stats = true;
    dialect = Cypher_ast.Validate.Revised; params = Smap.empty;
    plan_cache_capacity = 128 }

(** Everything the parser accepts, atomic semantics: used to experiment
    with the Section 6 proposal variants (MERGE GROUPING / WEAK /
    COLLAPSE). *)
let permissive =
  { mode = Atomic; order = Forward; match_mode = Isomorphic; planner = On;
    parallelism = default_parallelism; durability = Fsync; collect_stats = true;
    dialect = Cypher_ast.Validate.Permissive; params = Smap.empty;
    plan_cache_capacity = 128 }

let with_order order t = { t with order }
let with_match_mode match_mode t = { t with match_mode }
let with_planner planner t = { t with planner }
let with_parallelism parallelism t = { t with parallelism = max 0 parallelism }
let with_durability durability t = { t with durability }
let with_stats collect_stats t = { t with collect_stats }
let with_params params t = { t with params }

let with_param name v t = { t with params = Smap.add name v t.params }

let with_plan_cache_capacity n t = { t with plan_cache_capacity = max 0 n }

(** [arrange_rows config rows] applies the configured record order;
    identity under [Forward]. *)
let arrange_rows config rows =
  match config.order with
  | Forward -> rows
  | Reverse -> List.rev rows
  | Seeded seed -> Cypher_util.Listx.permutation_of_seed seed rows
