(** Built-in scalar functions.

    Functions are looked up by lowercase name; most follow Cypher's null
    discipline (a null argument yields null).  Entity inspection
    functions (id, labels, type, …) read the graph in the context. *)

open Cypher_util.Maps
open Cypher_graph

let type_name = function
  | Value.Null -> "null"
  | Value.Bool _ -> "boolean"
  | Value.Int _ -> "integer"
  | Value.Float _ -> "float"
  | Value.String _ -> "string"
  | Value.List _ -> "list"
  | Value.Map _ -> "map"
  | Value.Node _ -> "node"
  | Value.Rel _ -> "relationship"
  | Value.Path _ -> "path"

let bad_arg name v =
  Ctx.error "%s: unexpected argument of type %s" name (type_name v)

let wrong_arity name n = Ctx.error "%s: expected %d argument(s)" name n

(** String rendering used by [toString] and string concatenation:
    unquoted strings, Cypher syntax for everything else. *)
let rec display_string v =
  match v with
  | Value.String s -> s
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f ->
      (* every nan reads "nan", as in [Value.pp]: the C library prints
         the sign bit ("-nan"), which no nan comparison can see *)
      if Float.is_nan f then "nan"
      else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else string_of_float f
  | Value.Null -> "null"
  | Value.List l -> "[" ^ String.concat ", " (List.map display_string l) ^ "]"
  | Value.Map _ | Value.Node _ | Value.Rel _ | Value.Path _ ->
      Value.to_string v

let entity_props (ctx : Ctx.t) name v =
  match v with
  | Value.Node id -> Props.to_map (Graph.node_props_of ctx.graph id)
  | Value.Rel id -> Props.to_map (Graph.rel_props_of ctx.graph id)
  | Value.Map m -> m
  | v -> bad_arg name v

let the_rel (ctx : Ctx.t) name v =
  match v with
  | Value.Rel id -> (
      match Graph.rel ctx.graph id with
      | Some r -> r
      | None -> Ctx.error "%s: relationship %d has been deleted" name id)
  | v -> bad_arg name v

let float_fn name f = function
  | [ Value.Null ] -> Value.Null
  | [ Value.Int i ] -> Value.Float (f (float_of_int i))
  | [ Value.Float x ] -> Value.Float (f x)
  | [ v ] -> bad_arg name v
  | _ -> wrong_arity name 1

let string_fn name f = function
  | [ Value.Null ] -> Value.Null
  | [ Value.String s ] -> Value.String (f s)
  | [ v ] -> bad_arg name v
  | _ -> wrong_arity name 1

(** [apply ctx name args] applies built-in [name] to evaluated [args]. *)
let apply (ctx : Ctx.t) name (args : Value.t list) : Value.t =
  match (name, args) with
  (* --- entity inspection ----------------------------------------- *)
  | "id", [ Value.Node id ] | "id", [ Value.Rel id ] -> Value.Int id
  | "id", [ Value.Null ] -> Value.Null
  | "id", [ v ] -> bad_arg name v
  | "labels", [ Value.Node id ] ->
      Value.List
        (List.map (fun l -> Value.String l) (Graph.labels_of ctx.graph id))
  | "labels", [ Value.Null ] -> Value.Null
  | "labels", [ v ] -> bad_arg name v
  | "type", [ Value.Null ] -> Value.Null
  | "type", [ v ] -> Value.String (the_rel ctx name v).Graph.r_type
  | "properties", [ Value.Null ] -> Value.Null
  | "properties", [ v ] -> Value.Map (entity_props ctx name v)
  | "keys", [ Value.Null ] -> Value.Null
  | "keys", [ v ] ->
      Value.List
        (List.map (fun (k, _) -> Value.String k) (Smap.bindings (entity_props ctx name v)))
  | "exists", [ Value.Null ] -> Value.Bool false
  | "exists", [ _ ] -> Value.Bool true
  | "startnode", [ Value.Null ] -> Value.Null
  | "startnode", [ v ] -> Value.Node (the_rel ctx name v).Graph.src
  | "endnode", [ Value.Null ] -> Value.Null
  | "endnode", [ v ] -> Value.Node (the_rel ctx name v).Graph.tgt
  (* --- path functions -------------------------------------------- *)
  | "nodes", [ Value.Path p ] ->
      Value.List (List.map (fun id -> Value.Node id) p.Value.path_nodes)
  | "nodes", [ Value.Null ] -> Value.Null
  | "nodes", [ v ] -> bad_arg name v
  | "relationships", [ Value.Path p ] ->
      Value.List (List.map (fun id -> Value.Rel id) p.Value.path_rels)
  | "relationships", [ Value.Null ] -> Value.Null
  | "relationships", [ v ] -> bad_arg name v
  | "length", [ Value.Path p ] -> Value.Int (List.length p.Value.path_rels)
  | "length", [ Value.Null ] -> Value.Null
  | "length", [ Value.String s ] -> Value.Int (String.length s)
  | "length", [ Value.List l ] -> Value.Int (List.length l)
  | "length", [ v ] -> bad_arg name v
  (* --- collections ------------------------------------------------ *)
  | "size", [ Value.Null ] -> Value.Null
  | "size", [ Value.List l ] -> Value.Int (List.length l)
  | "size", [ Value.String s ] -> Value.Int (String.length s)
  | "size", [ Value.Map m ] -> Value.Int (Smap.cardinal m)
  | "size", [ v ] -> bad_arg name v
  | "head", [ Value.Null ] -> Value.Null
  | "head", [ Value.List [] ] -> Value.Null
  | "head", [ Value.List (x :: _) ] -> x
  | "head", [ v ] -> bad_arg name v
  | "last", [ Value.Null ] -> Value.Null
  | "last", [ Value.List [] ] -> Value.Null
  | "last", [ Value.List l ] -> List.nth l (List.length l - 1)
  | "last", [ v ] -> bad_arg name v
  | "tail", [ Value.Null ] -> Value.Null
  | "tail", [ Value.List [] ] -> Value.List []
  | "tail", [ Value.List (_ :: rest) ] -> Value.List rest
  | "tail", [ v ] -> bad_arg name v
  | "reverse", [ Value.Null ] -> Value.Null
  | "reverse", [ Value.List l ] -> Value.List (List.rev l)
  | "reverse", [ Value.String s ] ->
      Value.String
        (String.init (String.length s) (fun i ->
             s.[String.length s - 1 - i]))
  | "reverse", [ v ] -> bad_arg name v
  | "range", [ Value.Int a; Value.Int b ] ->
      if b < a then Value.List []
      else Value.List (List.init (b - a + 1) (fun i -> Value.Int (a + i)))
  | "range", [ Value.Int a; Value.Int b; Value.Int step ] ->
      if step = 0 then Ctx.error "range: step must be non-zero"
      else
        let rec build acc x =
          if (step > 0 && x > b) || (step < 0 && x < b) then List.rev acc
          else build (Value.Int x :: acc) (x + step)
        in
        Value.List (build [] a)
  | "range", _ -> Ctx.error "range: expected integer arguments"
  (* --- coalescing and conversion ---------------------------------- *)
  | "coalesce", args -> (
      match List.find_opt (fun v -> not (Value.is_null v)) args with
      | Some v -> v
      | None -> Value.Null)
  | "tostring", [ Value.Null ] -> Value.Null
  | "tostring", [ v ] -> Value.String (display_string v)
  | "tointeger", [ Value.Null ] -> Value.Null
  | "tointeger", [ Value.Int i ] -> Value.Int i
  | "tointeger", [ Value.Float f ] -> Value.Int (int_of_float f)
  | "tointeger", [ Value.String s ] -> (
      match int_of_string_opt (String.trim s) with
      | Some i -> Value.Int i
      | None -> (
          match float_of_string_opt (String.trim s) with
          | Some f -> Value.Int (int_of_float f)
          | None -> Value.Null))
  | "tointeger", [ v ] -> bad_arg name v
  | "tofloat", [ Value.Null ] -> Value.Null
  | "tofloat", [ Value.Int i ] -> Value.Float (float_of_int i)
  | "tofloat", [ Value.Float f ] -> Value.Float f
  | "tofloat", [ Value.String s ] -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> Value.Float f
      | None -> Value.Null)
  | "tofloat", [ v ] -> bad_arg name v
  | "toboolean", [ Value.Null ] -> Value.Null
  | "toboolean", [ Value.Bool b ] -> Value.Bool b
  | "toboolean", [ Value.String s ] -> (
      match String.lowercase_ascii (String.trim s) with
      | "true" -> Value.Bool true
      | "false" -> Value.Bool false
      | _ -> Value.Null)
  | "toboolean", [ v ] -> bad_arg name v
  (* --- numeric ----------------------------------------------------- *)
  | "abs", [ Value.Null ] -> Value.Null
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "abs", [ v ] -> bad_arg name v
  | "sign", [ Value.Null ] -> Value.Null
  | "sign", [ Value.Int i ] -> Value.Int (compare i 0)
  | "sign", [ Value.Float f ] -> Value.Int (compare f 0.)
  | "sign", [ v ] -> bad_arg name v
  | "sqrt", args -> float_fn name Float.sqrt args
  | "exp", args -> float_fn name Float.exp args
  | "log", args -> float_fn name Float.log args
  | "log10", args -> float_fn name Float.log10 args
  | "floor", args -> float_fn name Float.floor args
  | "ceil", args -> float_fn name Float.ceil args
  | "round", args -> float_fn name Float.round args
  | "sin", args -> float_fn name Float.sin args
  | "cos", args -> float_fn name Float.cos args
  | "tan", args -> float_fn name Float.tan args
  | "asin", args -> float_fn name Float.asin args
  | "acos", args -> float_fn name Float.acos args
  | "atan", args -> float_fn name Float.atan args
  | "atan2", [ Value.Null; _ ] | "atan2", [ _; Value.Null ] -> Value.Null
  | "atan2", [ y; x ] -> (
      let f = function
        | Value.Int i -> float_of_int i
        | Value.Float v -> v
        | v -> bad_arg name v
      in
      Value.Float (Float.atan2 (f y) (f x)))
  | "atan2", _ -> wrong_arity name 2
  | "pi", [] -> Value.Float Float.pi
  | "e", [] -> Value.Float (Float.exp 1.0)
  (* --- strings ------------------------------------------------------ *)
  | "toupper", args -> string_fn name String.uppercase_ascii args
  | "tolower", args -> string_fn name String.lowercase_ascii args
  | "trim", args -> string_fn name String.trim args
  | "ltrim", args ->
      string_fn name
        (fun s ->
          let n = String.length s in
          let rec first i = if i < n && s.[i] = ' ' then first (i + 1) else i in
          let i = first 0 in
          String.sub s i (n - i))
        args
  | "rtrim", args ->
      string_fn name
        (fun s ->
          let rec last i = if i > 0 && s.[i - 1] = ' ' then last (i - 1) else i in
          let i = last (String.length s) in
          String.sub s 0 i)
        args
  | "left", [ Value.String s; Value.Int n ] ->
      Value.String (String.sub s 0 (min n (String.length s)))
  | "left", [ Value.Null; _ ] -> Value.Null
  | "left", _ -> Ctx.error "left: expected (string, integer)"
  | "right", [ Value.String s; Value.Int n ] ->
      let n = min n (String.length s) in
      Value.String (String.sub s (String.length s - n) n)
  | "right", [ Value.Null; _ ] -> Value.Null
  | "right", _ -> Ctx.error "right: expected (string, integer)"
  | "substring", [ Value.String s; Value.Int start ] ->
      let n = String.length s in
      let start = max 0 (min start n) in
      Value.String (String.sub s start (n - start))
  | "substring", [ Value.String s; Value.Int start; Value.Int len ] ->
      let n = String.length s in
      let start = max 0 (min start n) in
      let len = max 0 (min len (n - start)) in
      Value.String (String.sub s start len)
  | "substring", (Value.Null :: _) -> Value.Null
  | "substring", _ -> Ctx.error "substring: expected (string, integer[, integer])"
  | "split", [ Value.String s; Value.String sep ] ->
      if sep = "" then Ctx.error "split: empty separator"
      else
        let parts = ref [] in
        let buf = Buffer.create 16 in
        let slen = String.length sep in
        let i = ref 0 in
        while !i < String.length s do
          if
            !i + slen <= String.length s
            && String.sub s !i slen = sep
          then (
            parts := Buffer.contents buf :: !parts;
            Buffer.clear buf;
            i := !i + slen)
          else (
            Buffer.add_char buf s.[!i];
            incr i)
        done;
        parts := Buffer.contents buf :: !parts;
        Value.List (List.rev_map (fun s -> Value.String s) !parts)
  | "split", (Value.Null :: _) -> Value.Null
  | "split", _ -> Ctx.error "split: expected (string, string)"
  | "replace", [ Value.String s; Value.String from_s; Value.String to_s ] ->
      if from_s = "" then Value.String s
      else
        let buf = Buffer.create (String.length s) in
        let flen = String.length from_s in
        let i = ref 0 in
        while !i < String.length s do
          if !i + flen <= String.length s && String.sub s !i flen = from_s
          then (
            Buffer.add_string buf to_s;
            i := !i + flen)
          else (
            Buffer.add_char buf s.[!i];
            incr i)
        done;
        Value.String (Buffer.contents buf)
  | "replace", (Value.Null :: _) -> Value.Null
  | "replace", _ -> Ctx.error "replace: expected (string, string, string)"
  | name, args ->
      Ctx.error "unknown function %s/%d" name (List.length args)
