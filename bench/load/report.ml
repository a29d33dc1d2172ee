(** Statistics, the printed metric table, the result line, and the A/B
    summary. *)

(** A reported number: name, value, unit and how many samples it came
    from. *)
type metric = { name : string; value : float; unit_ : string; samples : int }

let metric name unit_ samples value = { name; value; unit_; samples }

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(** Nearest-rank percentile of an ascending array ([nan] when empty). *)
let pct_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let pct a p = pct_sorted (sorted a) p
let median a = pct a 50.

let mean a =
  if Array.length a = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(** Quartiles the way Python's [statistics.quantiles(values, n=4)]
    computes them (the "exclusive" method), so spreads printed here
    match the ones the benchmark's bounds were set from. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then (nan, nan, nan)
  else
    let q i =
      let j = max 1 (min (ld - 1) (i * (ld + 1) / 4)) in
      let delta = (i * (ld + 1)) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let print_table title ms =
  Printf.printf "%s\n%-34s %16s %-8s %10s\n" title "metric" "value" "unit" "samples";
  List.iter
    (fun m ->
      if Float.is_nan m.value then
        Printf.printf "%-34s %16s %-8s %10d\n" m.name "n/a" m.unit_ m.samples
      else Printf.printf "%-34s %16.6f %-8s %10d\n" m.name m.value m.unit_ m.samples)
    ms

let json_num v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.12g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* a metric with no samples on this workload ([nan]) is left out *)
let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.filter_map
         (fun m ->
           if Float.is_nan m.value then None
           else
             Some
               (Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
                  (json_num m.value) (json_string m.unit_)))
         ms)
  ^ "}"

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    attempted failed (json_metrics ms)

(* ------------------------------------------------------------------ *)
(* A small JSON reader, for BENCHMARK.json                             *)
(* ------------------------------------------------------------------ *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let parse_json s =
  let n = String.length s in
  let i = ref 0 in
  let fail () = failwith (Printf.sprintf "bad JSON at offset %d" !i) in
  let rec ws () = if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; ws ()) in
  let expect c = ws (); if !i < n && s.[!i] = c then incr i else fail () in
  let rec value () =
    ws ();
    if !i >= n then fail ();
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            let k = (match value () with Str k -> k | _ -> fail ()) in
            expect ':';
            let v = value () in
            ws ();
            if s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        ws ();
        if s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if s.[!i] = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' ->
        incr i;
        let b = Buffer.create 16 in
        while !i < n && s.[!i] <> '"' do
          if s.[!i] = '\\' && !i + 1 < n then incr i;
          Buffer.add_char b s.[!i];
          incr i
        done;
        incr i;
        Str (Buffer.contents b)
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
        (match float_of_string_opt (String.sub s j (!i - j)) with
        | Some f -> Num f
        | None -> fail ())
  in
  value ()

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* the metric table lines of a run's output: name, value, unit, samples *)
let printed_metrics text =
  List.filter_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | [ name; v; _unit; n ] when int_of_string_opt n <> None -> (
          match float_of_string_opt v with Some v -> Some (name, v) | None -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

(** [ab_report dir] summarises the run outputs [ab.sh] saved under [dir]
    as [<side>-<workload>-<pair>.log] ([side] is [base] or [head]),
    metric by metric.  Directions come from [BENCHMARK.json] (lower is
    better for a metric it does not list); bounds from its end-to-end
    list. *)
let ab_report dir =
  let bench = parse_json (read_file "BENCHMARK.json") in
  let listed key =
    match member key bench with
    | Some (Arr ms) ->
        List.filter_map
          (fun m ->
            match (member "name" m, member "better" m) with
            | Some (Str n), Some (Str b) ->
                Some (n, (b = "higher", match member "bound" m with Some (Num x) -> Some x | _ -> None))
            | _ -> None)
          ms
    | _ -> []
  in
  let known = listed "end_to_end" @ listed "per_layer" in
  let runs = Hashtbl.create 64 in
  Array.iter
    (fun f ->
      match String.split_on_char '-' (Filename.remove_extension f) with
      | side :: rest when Filename.check_suffix f ".log" && List.length rest >= 2 ->
          let rest = Array.of_list rest in
          let last = Array.length rest - 1 in
          let workload = String.concat "-" (Array.to_list (Array.sub rest 0 last)) in
          Hashtbl.replace runs
            (side, workload, int_of_string rest.(last))
            (printed_metrics (read_file (Filename.concat dir f)))
      | _ -> ())
    (Sys.readdir dir);
  let keys f = Hashtbl.fold (fun k _ acc -> if List.mem (f k) acc then acc else f k :: acc) runs [] in
  let workloads = List.sort compare (keys (fun (_, w, _) -> w)) in
  let pairs = List.sort compare (keys (fun (_, _, p) -> p)) in
  let value side w pair name =
    Option.bind (Hashtbl.find_opt runs (side, w, pair)) (List.assoc_opt name)
  in
  Printf.printf "%-16s %-16s %32s %32s %6s  %s\n" "workload" "metric" "base q1/median/q3"
    "head q1/median/q3" "wins" "verdict";
  List.iter
    (fun w ->
      let names =
        match Hashtbl.find_opt runs ("base", w, List.hd pairs) with
        | Some ms -> List.map fst ms
        | None -> []
      in
      List.iter
        (fun name ->
          let higher, bound = Option.value ~default:(false, None) (List.assoc_opt name known) in
          let both =
            List.filter_map
              (fun p ->
                match (value "base" w p name, value "head" w p name) with
                | Some b, Some h -> Some (b, h)
                | _ -> None)
              pairs
          in
          if both <> [] then begin
            let base = Array.of_list (List.map fst both) and head = Array.of_list (List.map snd both) in
            let b1, bm, b3 = quartiles base and h1, hm, h3 = quartiles head in
            let better h b = if higher then h > b else h < b in
            let wins = List.length (List.filter (fun (b, h) -> better h b) both) in
            let losses = List.length (List.filter (fun (b, h) -> better b h) both) in
            let n = List.length both in
            let clear = Float.abs (hm -. bm) > b3 -. b1 in
            let worse = (if higher then bm -. hm else hm -. bm) /. bm in
            (* every head run better than every base run *)
            let all_better =
              if higher then Array.fold_left min infinity head > Array.fold_left max neg_infinity base
              else Array.fold_left max neg_infinity head < Array.fold_left min infinity base
            in
            (* a gain needs 9 wins in 10 pairs and a median gap wider
               than the base's own quartile spread: host drift alone
               rarely produces both.  A bounded metric is judged
               against its bound before anything else. *)
            let verdict =
              match bound with
              | Some b when worse > b -> "regression"
              | _ when 10 * wins >= 9 * n && clear -> "gain"
              | _ when 10 * losses >= 9 * n && clear -> "loss"
              | Some b when (b3 -. b1) /. bm > b && not all_better -> "unresolved"
              | Some _ -> "within bound"
              | None -> "no clear change"
            in
            Printf.printf "%-16s %-16s %10.4g/%9.4g/%10.4g %10.4g/%9.4g/%10.4g %3d/%-3d %s\n" w name b1
              bm b3 h1 hm h3 wins n verdict
          end)
        names)
    workloads
