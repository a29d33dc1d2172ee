(** Fixtures: every graph, driving table and query the paper uses in its
    worked examples, plus builders for the expected result graphs of
    Figures 6–9.  Shared by the test suite, the experiment harness
    ([bin/experiments.ml]) and the benchmarks. *)

open Cypher_graph
open Cypher_table

(** [build nodes rels] constructs a graph from declarative specs:
    [nodes] is a list of (labels, props) — node k is the k-th entry, with
    id k — and [rels] is a list of (src index, type, tgt index). *)
val build :
  (string list * (string * Value.t) list) list ->
  (int * string * int) list ->
  Graph.t

(** {1 Figure 1: the online marketplace} *)

(** Cypher building the solid-line part of Figure 1. *)
val figure1_setup : string

(** The same graph built directly (for comparing against). *)
val figure1_graph : Graph.t

(** Queries (1)–(5) of Sections 2–3, verbatim. *)

val query1 : string
val query2 : string
val query3 : string
val query4 : string
val query5_legacy : string

(** {1 Examples 1 and 2: SET} *)

val example1_swap : string
val example2_ambiguous : string

(** {1 Section 4.2: the deleted-node query} *)

val deleted_node_query : string

(** A one-user one-order graph on which the above runs cleanly. *)
val deleted_node_graph : Graph.t

(** {1 Example 3 / Figures 6a, 6b} *)

(** Five relationship-less nodes named u1, u2, p, v1, v2. *)
val example3_graph : Graph.t

(** The driving table of Example 3; node values refer to
    {!example3_graph} by creation order. *)
val example3_table : Table.t

val example3_merge : string

(** Figure 6a: all three records created their paths. *)
val figure6a : Graph.t

(** Figure 6b: the third record matched what the first two created. *)
val figure6b : Graph.t

(** {1 Example 5 / Figures 7a, 7b, 7c} *)

val example5_merge : string

(** The six-row cid/pid/date table with duplicates and nulls. *)
val example5_table : Table.t

val figure7a : Graph.t
val figure7b : Graph.t
val figure7c : Graph.t

(** {1 Example 6 / Figures 8a, 8b} *)

val example6_merge : string
val example6_table : Table.t
val figure8a : Graph.t
val figure8b : Graph.t

(** {1 Example 7 / Figures 9a, 9b} *)

(** Four product pages previously looked up in the graph. *)
val example7_graph : Graph.t

(** The one-row clickstream trail a–e plus tgt. *)
val example7_table : Table.t

val example7_merge : string
val example7_match : string
val figure9a : Graph.t
val figure9b : Graph.t

(** {1 Synthetic workload generators (benchmarks)} *)

(** [marketplace_graph ~vendors ~products ~users ~orders_per_user]
    generates a larger Figure-1-style graph deterministically. *)
val marketplace_graph :
  vendors:int -> products:int -> users:int -> orders_per_user:int -> Graph.t

(** [orders_table n] generates an Example-5-style driving table with
    duplicates and nulls sprinkled deterministically. *)
val orders_table : int -> Table.t
