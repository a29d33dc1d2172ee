(** Sharing what repeats across the entities of one load; see the
    interface. *)

open Cypher_util.Maps

(* tables keyed by the type itself, so a lookup neither boxes its key
   nor calls the polymorphic hash and compare *)
module Stbl = Hashtbl.Make (String)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* the table indexes by the low bits: fold the product's high bits in *)
  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 31)) land max_int
end)

type t = {
  names : string Stbl.t;
  label_sets : (string list, Sset.t) Hashtbl.t;
  ints : Value.t Itbl.t;
  strings : Value.t Stbl.t;
  bools : Value.t array;  (** [false], [true] as first seen; [Null] before *)
  key_arrays : (string array, string array) Hashtbl.t;
}

let create () =
  {
    names = Stbl.create 16;
    label_sets = Hashtbl.create 16;
    ints = Itbl.create 16;
    strings = Stbl.create 16;
    bools = [| Value.Null; Value.Null |];
    key_arrays = Hashtbl.create 16;
  }

let find_or_add tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some shared -> shared
  | None ->
      let v = make k in
      Hashtbl.add tbl k v;
      v

let name t s =
  match Stbl.find t.names s with
  | shared -> shared
  | exception Not_found ->
      Stbl.add t.names s s;
      s

let labels t l = find_or_add t.label_sets l Sset.of_list

let value t (v : Value.t) =
  match v with
  | Value.Int i -> (
      match Itbl.find t.ints i with
      | shared -> shared
      | exception Not_found ->
          Itbl.add t.ints i v;
          v)
  | Value.String s -> (
      match Stbl.find t.strings s with
      | shared -> shared
      | exception Not_found ->
          Stbl.add t.strings s v;
          v)
  | Value.Bool b -> (
      let i = Bool.to_int b in
      match t.bools.(i) with
      | Value.Null ->
          t.bools.(i) <- v;
          v
      | shared -> shared)
  | _ -> v

let keys t a = find_or_add t.key_arrays a Fun.id
let props t m = Props.of_map ~intern:(keys t) m
