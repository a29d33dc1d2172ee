(* Golden-output suite for EXPLAIN / PROFILE (the [@profile] alias).

   Runs a fixed sequence of prefixed statements on a deterministic graph
   and prints the rendered plans, per-clause row counts and counters
   footers.  Wall-times are scrubbed (they are the one nondeterministic
   part of a PROFILE), so the output is byte-stable and diffed against
   profile_golden.expected. *)

open Cypher_graph
open Cypher_core

let config = Config.revised

let scrubbed_profile entries =
  let width =
    List.fold_left
      (fun w (e : Stats.profile_entry) -> max w (String.length e.Stats.pf_clause))
      6 entries
  in
  Printf.printf "%-*s %8s %10s\n" width "clause" "rows" "time";
  List.iter
    (fun (e : Stats.profile_entry) ->
      Printf.printf "%-*s %8d %10s\n" width e.Stats.pf_clause e.Stats.pf_rows
        "<scrubbed>")
    entries

let run g src =
  Printf.printf "> %s\n" src;
  match Api.run_string ~config g src with
  | Error e ->
      Printf.printf "error: %s\n\n" (Errors.to_string e);
      g
  | Ok r ->
      (match r.Api.r_plan with Some plan -> print_endline plan | None -> ());
      (match r.Api.r_profile with
      | Some entries -> scrubbed_profile entries
      | None -> ());
      if Stats.contains_updates r.Api.r_stats then
        print_endline (Stats.footer r.Api.r_stats);
      print_newline ();
      r.Api.r_graph

let () =
  let g = Graph.add_prop_index ~label:"Product" ~key:"sku" Graph.empty in
  let g =
    (Api.run_exn ~config g
       "CREATE (v1:Vendor {name: 'acme'}), (v2:Vendor {name: 'apex'}), \
        (p1:Product {sku: 1}), (p2:Product {sku: 2}), (p3:Product {sku: 3}), \
        (u1:User {name: 'ada'}), (u2:User {name: 'bob'}), \
        (u3:User {name: 'cyd'}), (u4:User {name: 'dan'}), \
        (p1)-[:OF]->(v1), (p2)-[:OF]->(v1), (p3)-[:OF]->(v2), \
        (u1)-[:ORDERED]->(p1), (u2)-[:ORDERED]->(p1), \
        (u3)-[:ORDERED]->(p2), (u4)-[:ORDERED]->(p3)")
      .Api.r_graph
  in
  let g =
    List.fold_left run g
      [
        "EXPLAIN MATCH (u:User)-[:ORDERED]->(p)-[:OF]->(v:Vendor) RETURN \
         u.name, v.name";
        "EXPLAIN MATCH (p:Product {sku: 3}) RETURN p";
        "EXPLAIN MATCH (a)-[:ORDERED]->(b) WHERE b.sku = 1 RETURN a";
        "EXPLAIN CREATE (:Vendor {name: 'zenith'})";
        "EXPLAIN MATCH (u:User) RETURN u.name AS name UNION MATCH (v:Vendor) \
         RETURN v.name AS name";
        "PROFILE MATCH (u:User)-[:ORDERED]->(p:Product) SET p.popular = true \
         RETURN count(*) AS orders";
        "PROFILE MATCH (p:Product {sku: 2}) DETACH DELETE p";
        "PROFILE UNWIND [1, 2, 3] AS i CREATE (:Batch {n: i})";
        "PROFILE MERGE ALL (v:Vendor {name: 'acme'}) RETURN v.name";
      ]
  in
  ignore g
