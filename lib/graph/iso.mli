(** Graph isomorphism up to entity identity.

    Two property graphs are isomorphic when there is a bijection between
    their nodes preserving labels and properties, under which the
    relationship bags (source, target, type, properties) coincide.  The
    paper's figures specify result graphs only up to id renaming
    (Section 8.2), so this is the right equality for checking reproduced
    experiments.  Backtracking search; intended for small graphs. *)

val isomorphic : Graph.t -> Graph.t -> bool
