(** Sharing what repeats across the entities of one load; see the
    interface. *)

open Cypher_util.Maps

type t = {
  names : (string, string) Hashtbl.t;
  label_sets : (string list, Sset.t) Hashtbl.t;
  values : (Value.t, Value.t) Hashtbl.t;
  key_arrays : (string array, string array) Hashtbl.t;
}

let create () =
  {
    names = Hashtbl.create 16;
    label_sets = Hashtbl.create 16;
    values = Hashtbl.create 16;
    key_arrays = Hashtbl.create 16;
  }

let find_or_add tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some shared -> shared
  | None ->
      let v = make k in
      Hashtbl.add tbl k v;
      v

let name t s = find_or_add t.names s Fun.id
let labels t l = find_or_add t.label_sets l Sset.of_list

let value t (v : Value.t) =
  match v with
  | Value.Int _ | Value.String _ | Value.Bool _ -> find_or_add t.values v Fun.id
  | _ -> v

let props t m = Props.of_map ~intern:(fun keys -> find_or_add t.key_arrays keys Fun.id) m
