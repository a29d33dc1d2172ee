(** Per-connection protocol logic, independent of sockets — the unit
    the TCP front end, the tests and fuzz oracle 9 all drive.

    Protocol: one request per line — a [:]-command ([:begin] [:commit]
    [:rollback] [:ping] [:stats] [:quit]) or a Cypher statement.  Each
    request is answered by zero or more payload lines followed by one
    terminator, [OK rows=<n> version=<v>] or [ERR <message>]; payload
    lines that would start like a terminator are escaped with one
    leading space.

    Isolation: [:begin] pins the committed head; statements inside the
    transaction see that snapshot plus the transaction's own writes
    (snapshot isolation).  [:commit] goes through the shared group
    committer; if the head moved, the recorded update statements are
    replayed against it in order, so the final graph always equals a
    serial execution of committed transactions in commit order.  Read
    statements execute on the domain pool (width [readers]), so
    concurrent clients' queries overlap on separate cores. *)

open Cypher_core

type t

(** [create ?readers ?config shared] makes the per-connection state:
    a fresh session under [config] with update-counter collection
    forced on, used for its plan cache only; every statement runs on an
    explicit graph (the committed head, or an open transaction's
    working graph).  [readers] (default 1 = inline) is the pool width
    read statements are submitted under. *)
val create : ?readers:int -> ?config:Config.t -> Shared.t -> t

(** [handle t line] answers one request with its full response lines
    (payload then terminator).  Empty input produces no response. *)
val handle : t -> string -> string list

(** Whether [:quit] has been received (the connection should close). *)
val closed : t -> bool

(** The connection's session, whose {!Session.cache_stats} are the
    connection's plan-cache counters. *)
val session : t -> Session.t
