(** The list utilities underpinning tables and permutation probes. *)

open Cypher_util
open Test_util

let suite =
  [
    case "take and drop partition a list" (fun () ->
        let l = [ 1; 2; 3; 4; 5 ] in
        Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 l);
        Alcotest.(check (list int)) "drop" [ 3; 4; 5 ] (Listx.drop 2 l);
        Alcotest.(check (list int)) "take beyond" l (Listx.take 99 l);
        Alcotest.(check (list int)) "drop beyond" [] (Listx.drop 99 l);
        Alcotest.(check (list int)) "take negative" [] (Listx.take (-1) l));
    case "index_of finds the first hit" (fun () ->
        Alcotest.(check (option int)) "hit" (Some 1)
          (Listx.index_of (fun x -> x > 1) [ 1; 2; 3 ]);
        Alcotest.(check (option int)) "miss" None
          (Listx.index_of (fun x -> x > 9) [ 1; 2; 3 ]));
    case "all_distinct" (fun () ->
        Alcotest.(check bool) "distinct" true (Listx.all_distinct compare [ 1; 2; 3 ]);
        Alcotest.(check bool) "dup" false (Listx.all_distinct compare [ 1; 2; 1 ]));
    case "interleave" (fun () ->
        Alcotest.(check (list int)) "sep" [ 1; 0; 2; 0; 3 ]
          (Listx.interleave 0 [ 1; 2; 3 ]);
        Alcotest.(check (list int)) "single" [ 1 ] (Listx.interleave 0 [ 1 ]));
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        QCheck.Test.make ~name:"permutation is a bijection on the bag"
          ~count:200
          QCheck.(pair small_int (list small_int))
          (fun (seed, l) ->
            List.sort compare (Listx.permutation_of_seed seed l)
            = List.sort compare l);
        QCheck.Test.make ~name:"permutation is deterministic per seed"
          ~count:200
          QCheck.(pair small_int (list small_int))
          (fun (seed, l) ->
            Listx.permutation_of_seed seed l = Listx.permutation_of_seed seed l);
        QCheck.Test.make ~name:"take n @ drop n = original" ~count:200
          QCheck.(pair small_nat (list small_int))
          (fun (n, l) -> Listx.take n l @ Listx.drop n l = l);
      ]
