(** Driving tables: bags of consistent records. *)

open Cypher_table
open Test_util

let r l = Record.of_list l

let suite =
  [
    case "unit table has one empty record" (fun () ->
        Alcotest.(check int) "rows" 1 (Table.row_count Table.unit);
        Alcotest.(check (list string)) "columns" [] (Table.columns Table.unit));
    case "make pads missing bindings with null" (fun () ->
        let t = Table.make [ "a"; "b" ] [ r [ ("a", vint 1) ] ] in
        check_value "b is null" vnull (Record.find (List.hd (Table.rows t)) "b"));
    case "make drops extra bindings" (fun () ->
        let t = Table.make [ "a" ] [ r [ ("a", vint 1); ("z", vint 9) ] ] in
        Alcotest.(check bool) "z gone" false
          (Record.mem (List.hd (Table.rows t)) "z"));
    case "column order is preserved" (fun () ->
        let t = Table.make [ "z"; "a" ] [] in
        Alcotest.(check (list string)) "order" [ "z"; "a" ] (Table.columns t));
    case "bag union adds up duplicates" (fun () ->
        let t1 = Table.make [ "a" ] [ r [ ("a", vint 1) ] ] in
        let t2 = Table.make [ "a" ] [ r [ ("a", vint 1) ] ] in
        Alcotest.(check int) "two rows" 2 (Table.row_count (Table.bag_union t1 t2)));
    case "union deduplicates" (fun () ->
        let t1 = Table.make [ "a" ] [ r [ ("a", vint 1) ]; r [ ("a", vint 2) ] ] in
        let t2 = Table.make [ "a" ] [ r [ ("a", vint 1) ] ] in
        Alcotest.(check int) "three distinct... no, two" 2
          (Table.row_count (Table.union t1 t2)));
    case "distinct preserves first-occurrence order" (fun () ->
        let t =
          Table.make [ "a" ]
            [ r [ ("a", vint 2) ]; r [ ("a", vint 1) ]; r [ ("a", vint 2) ] ]
        in
        Alcotest.(check (list value_testable))
          "order" [ vint 2; vint 1 ]
          (column (Table.distinct t) "a"));
    case "distinct on 10k rows is fast and order-preserving" (fun () ->
        (* 10_000 rows over 100 distinct values: the old pairwise
           O(n^2) dedup took seconds here; the keyed one is instant.
           First occurrence of value v is at row v, so the output must
           be 0..99 in order. *)
        let t =
          Table.make [ "a" ]
            (List.init 10_000 (fun i -> r [ ("a", vint (i mod 100)) ]))
        in
        let d = Table.distinct t in
        Alcotest.(check int) "100 distinct rows" 100 (Table.row_count d);
        Alcotest.(check (list value_testable))
          "first-occurrence order"
          (List.init 100 (fun i -> vint i))
          (column d "a"));
    case "projection keeps row count (bag semantics)" (fun () ->
        let t =
          Table.make [ "a"; "b" ]
            [ r [ ("a", vint 1); ("b", vint 1) ]; r [ ("a", vint 1); ("b", vint 2) ] ]
        in
        Alcotest.(check int) "rows" 2 (Table.row_count (Table.project [ "a" ] t)));
    case "skip and limit" (fun () ->
        let t = Table.make [ "a" ] (List.init 5 (fun i -> r [ ("a", vint i) ])) in
        Alcotest.(check int) "skip 2" 3 (Table.row_count (Table.skip 2 t));
        Alcotest.(check int) "limit 2" 2 (Table.row_count (Table.limit 2 t));
        Alcotest.(check int) "skip beyond" 0 (Table.row_count (Table.skip 10 t)));
    case "reverse and permute keep the bag" (fun () ->
        let t = Table.make [ "a" ] (List.init 6 (fun i -> r [ ("a", vint i) ])) in
        Alcotest.(check bool) "reverse" true
          (Table.equal_as_bags t (Table.reverse t));
        Alcotest.(check bool) "permute" true
          (Table.equal_as_bags t (Table.permute_seed 7 t)));
    case "equal_as_bags ignores order but not multiplicity" (fun () ->
        let t1 = Table.make [ "a" ] [ r [ ("a", vint 1) ]; r [ ("a", vint 2) ] ] in
        let t2 = Table.make [ "a" ] [ r [ ("a", vint 2) ]; r [ ("a", vint 1) ] ] in
        let t3 = Table.make [ "a" ] [ r [ ("a", vint 1) ]; r [ ("a", vint 1) ] ] in
        Alcotest.(check bool) "same bag" true (Table.equal_as_bags t1 t2);
        Alcotest.(check bool) "different bag" false (Table.equal_as_bags t1 t3));
    case "record project pads with null" (fun () ->
        let rec_ =
          Record.project (Slots.of_names [ "a"; "b" ]) (r [ ("a", vint 1) ])
        in
        check_value "a" (vint 1) (Record.find rec_ "a");
        check_value "b" vnull (Record.find rec_ "b"));
  ]
