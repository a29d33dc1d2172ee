(** An interactive shell and batch runner for the Cypher engine.

    Usage:
      cypher_shell                          # REPL, revised semantics
      cypher_shell --semantics legacy      # Cypher 9 behaviour
      cypher_shell -f script.cypher        # run a ;-separated script
      cypher_shell -f setup.cypher -i      # script, then drop into REPL
      cypher_shell --db PATH               # durable: journal + snapshots

    REPL commands (everything else is executed as Cypher):
      :help                 show this help
      :quit                 exit
      :graph                print the current graph
      :stats                node/relationship counts
      :stats on|off         toggle the per-statement counters footer
      :clear                reset to the empty graph
      :dot FILE             write the graph as Graphviz DOT
      :save FILE            write the graph as a Cypher dump
      :load FILE            run a ;-separated Cypher script
      :begin | :commit | :rollback   transaction control
      :compact              fold the journal into a snapshot (--db only)
      :semantics MODE       legacy | revised | permissive
      :order MODE           forward | reverse | seed:N  (legacy clauses)
      :param NAME = EXPR    bind $NAME for subsequent statements
      :params               list the current parameter bindings
      :params clear         drop all parameter bindings
*)

open Cypher_graph
open Cypher_core
module Store = Cypher_storage.Store
module Recovery = Cypher_storage.Recovery

type state = {
  session : Session.t;
  store : Store.t option;  (** present when opened with [--db] *)
  mutable show_stats : bool;
}

let print_table t =
  if Cypher_table.Table.columns t = [] then
    Fmt.pr "(%d row(s), no columns)@." (Cypher_table.Table.row_count t)
  else Fmt.pr "%a@.(%d row(s))@." Cypher_table.Table.pp t
         (Cypher_table.Table.row_count t)

let print_result st (r : Api.result) =
  (match r.Api.r_plan with Some plan -> Fmt.pr "%s@." plan | None -> ());
  (match r.Api.r_profile with
  | Some entries -> Fmt.pr "%a@." Stats.pp_profile entries
  | None -> ());
  (* EXPLAIN produces no table worth printing *)
  if r.Api.r_profile <> None || r.Api.r_plan = None then
    print_table r.Api.r_table;
  if st.show_stats && Stats.contains_updates r.Api.r_stats then
    Fmt.pr "%s@." (Stats.footer r.Api.r_stats)

let run_statement st src =
  (match Session.run st.session src with
  | Ok r -> print_result st r
  | Error e -> Fmt.epr "error: %s@." (Errors.to_string e));
  st

let semantics_of_string = function
  | "legacy" -> Some Config.cypher9
  | "revised" -> Some Config.revised
  | "permissive" -> Some Config.permissive
  | _ -> None

let order_of_string s =
  match s with
  | "forward" -> Some Config.Forward
  | "reverse" -> Some Config.Reverse
  | _ ->
      if String.length s > 5 && String.sub s 0 5 = "seed:" then
        Option.map
          (fun n -> Config.Seeded n)
          (int_of_string_opt (String.sub s 5 (String.length s - 5)))
      else None

(* Parameter values must survive a journal round-trip, so graph
   entities — whose identity is meaningless outside the session that
   produced them — are rejected at binding time. *)
let rec storable (v : Value.t) =
  match v with
  | Value.Null | Value.Bool _ | Value.Int _ | Value.Float _ | Value.String _
    ->
      true
  | Value.List vs -> List.for_all storable vs
  | Value.Map m -> Cypher_util.Maps.Smap.for_all (fun _ v -> storable v) m
  | Value.Node _ | Value.Rel _ | Value.Path _ -> false

(* [:param n = e] evaluates [e] as a standalone Cypher expression —
   against the current graph and bindings, so [:param big = $small * 10]
   works — and binds the result for every later statement. *)
let set_param st name expr_src =
  match Cypher_parser.Parser.parse_expr_string expr_src with
  | Error e ->
      Fmt.epr "error: %s@." (Cypher_parser.Parser.error_to_string e);
      st
  | Ok expr -> (
      let config = Session.config st.session in
      let ctx =
        Cypher_eval.Ctx.make ~params:config.Config.params
          (Session.graph st.session) Cypher_table.Record.empty
      in
      match Cypher_eval.Eval.eval ctx expr with
      | exception Cypher_eval.Ctx.Error m ->
          Fmt.epr "error: %s@." m;
          st
      | exception Errors.Error e ->
          Fmt.epr "error: %s@." (Errors.to_string e);
          st
      | v ->
          if not (storable v) then begin
            Fmt.epr
              "error: $%s: graph entities cannot be parameter values@." name;
            st
          end
          else begin
            Session.set_config st.session (Config.with_param name v config);
            Fmt.pr "$%s = %s@." name (Value.to_string v);
            st
          end)

let print_params st =
  let params = (Session.config st.session).Config.params in
  if Cypher_util.Maps.Smap.is_empty params then
    print_endline "no parameters bound"
  else
    Cypher_util.Maps.Smap.iter
      (fun name v -> Fmt.pr "$%s = %s@." name (Value.to_string v))
      params

let help_text =
  ":help :quit :graph :stats [on|off] :clear :dot FILE :save FILE :load FILE \
   :begin :commit :rollback :compact :semantics legacy|revised|permissive \
   :order forward|reverse|seed:N :param NAME = EXPR :params [clear] — \
   prefix a statement with EXPLAIN or PROFILE to see its plan"

(* A failed file write (unwritable path, full disk, dangling graph that
   cannot be dumped) must report and leave the REPL running, not kill
   it. *)
let write_file file content =
  match
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (content ()))
  with
  | () -> Fmt.pr "wrote %s@." file
  | exception Sys_error m -> Fmt.epr "error: %s@." m
  | exception Invalid_argument m -> Fmt.epr "error: %s@." m

(* [:clear] on a durable session persists the cleared state immediately
   (empty snapshot, empty journal); otherwise the dropped statements
   would come back on the next open. *)
let compact st =
  match st.store with
  | None -> Fmt.epr "error: no database open (start with --db PATH)@."
  | Some store -> (
      match Store.compact store st.session with
      | Ok () -> Fmt.pr "compacted %s@." (Store.dir store)
      | Error m -> Fmt.epr "error: %s@." m)

(* Scripts ([-f] and [:load]) are processed line-by-line like the REPL:
   a line starting with [:] between statements is a shell command — so
   [:param] bindings set in a script govern the statements after them —
   and everything else accumulates until a trailing [;].  Mutually
   recursive because commands include [:load] and scripts include
   commands. *)
let rec run_chunk st src =
  if String.trim src = "" then st
  else begin
    (match Session.run st.session src with
    | Ok r -> print_result st r
    | Error e -> (
        (* a chunk may pack several ;-separated statements on one
           line — split it with the multi-statement parser and run each
           statement as its printed text, the text it journals *)
        match Cypher_parser.Parser.parse_statements src with
        | Ok ((_ :: _ :: _) as statements) ->
            List.iter
              (fun statement ->
                match
                  Session.run st.session
                    (Cypher_parser.Parser.statement_to_string statement)
                with
                | Ok r -> print_result st r
                | Error e -> Fmt.epr "error: %s@." (Errors.to_string e))
              statements
        | _ -> Fmt.epr "error: %s@." (Errors.to_string e)));
    st
  end

and run_script st src =
  let buf = Buffer.create 256 in
  let flush st =
    let text = Buffer.contents buf in
    Buffer.clear buf;
    run_chunk st text
  in
  let rec go st = function
    | [] -> flush st
    | line :: rest ->
        let trimmed = String.trim line in
        if
          String.length trimmed > 0
          && trimmed.[0] = ':'
          && String.trim (Buffer.contents buf) = ""
        then begin
          Buffer.clear buf;
          match handle_command st trimmed with
          | Some st -> go st rest
          | None -> st (* :quit ends the script *)
        end
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if
            String.length trimmed > 0
            && trimmed.[String.length trimmed - 1] = ';'
          then go (flush st) rest
          else go st rest
        end
  in
  go st (String.split_on_char '\n' src)

and load_file st path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> run_script st src
  | exception Sys_error m ->
      Fmt.epr "error: %s@." m;
      st

and handle_command st line =
  match String.split_on_char ' ' (String.trim line) with
  | [ ":help" ] ->
      print_endline help_text;
      Some st
  | [ ":quit" ] | [ ":q" ] -> None
  | [ ":graph" ] ->
      Fmt.pr "%a@." Graph.pp (Session.graph st.session);
      Some st
  | [ ":stats" ] ->
      let g = Session.graph st.session in
      Fmt.pr "%d node(s), %d relationship(s)%s%s@." (Graph.node_count g)
        (Graph.rel_count g)
        (if Graph.is_wellformed g then ""
         else " — WARNING: dangling relationships present")
        (if Session.in_transaction st.session then
           Printf.sprintf " — in transaction (depth %d)"
             (Session.depth st.session)
         else "");
      List.iter
        (fun (l, n) -> Fmt.pr "  :%s %d@." l n)
        (Graph.label_histogram g);
      List.iter
        (fun (ty, n) -> Fmt.pr "  -[:%s]- %d@." ty n)
        (Graph.type_histogram g);
      Some st
  | [ ":stats"; ("on" | "off") as v ] ->
      st.show_stats <- v = "on";
      Fmt.pr "statement counters footer: %s@." v;
      Some st
  | [ ":clear" ] ->
      Session.reset st.session;
      print_endline "graph cleared";
      if st.store <> None then compact st;
      Some st
  | [ ":dot"; file ] ->
      write_file file (fun () -> Dot.to_dot (Session.graph st.session));
      Some st
  | [ ":save"; file ] ->
      write_file file (fun () -> Dump.to_cypher (Session.graph st.session));
      Some st
  | [ ":compact" ] ->
      compact st;
      Some st
  | [ ":load"; file ] -> Some (load_file st file)
  | [ ":begin" ] ->
      Session.begin_tx st.session;
      Fmt.pr "transaction started (depth %d)@." (Session.depth st.session);
      Some st
  | [ ":commit" ] ->
      (match Session.commit st.session with
      | Ok () -> print_endline "committed"
      | Error m -> Fmt.epr "error: %s@." m);
      Some st
  | [ ":rollback" ] ->
      (match Session.rollback st.session with
      | Ok () -> print_endline "rolled back"
      | Error m -> Fmt.epr "error: %s@." m);
      Some st
  | [ ":semantics"; mode ] -> (
      match semantics_of_string mode with
      | Some config ->
          Fmt.pr "semantics: %s@." mode;
          Session.set_config st.session
            { config with Config.order = (Session.config st.session).Config.order };
          Some st
      | None ->
          Fmt.epr "unknown semantics %S (legacy | revised | permissive)@." mode;
          Some st)
  | [ ":params" ] ->
      print_params st;
      Some st
  | [ ":params"; "clear" ] ->
      Session.set_config st.session
        (Config.with_params Cypher_util.Maps.Smap.empty
           (Session.config st.session));
      print_endline "parameters cleared";
      Some st
  (* Split on the first [=] of the raw line, not on the space-split
     tokens — the expression may contain significant whitespace. *)
  | ":param" :: _ -> (
      let text = String.trim (String.sub line 6 (String.length line - 6)) in
      match String.index_opt text '=' with
      | None ->
          Fmt.epr "usage: :param NAME = EXPRESSION@.";
          Some st
      | Some i ->
          let name =
            let n = String.trim (String.sub text 0 i) in
            if String.length n > 0 && n.[0] = '$' then
              String.sub n 1 (String.length n - 1)
            else n
          in
          let expr_src =
            String.trim (String.sub text (i + 1) (String.length text - i - 1))
          in
          if name = "" || expr_src = "" then begin
            Fmt.epr "usage: :param NAME = EXPRESSION@.";
            Some st
          end
          else Some (set_param st name expr_src))
  | [ ":order"; mode ] -> (
      match order_of_string mode with
      | Some order ->
          Session.set_config st.session
            (Config.with_order order (Session.config st.session));
          Some st
      | None ->
          Fmt.epr "unknown order %S (forward | reverse | seed:N)@." mode;
          Some st)
  | _ ->
      Fmt.epr "unknown command; %s@." help_text;
      Some st

let repl st =
  let buf = Buffer.create 256 in
  let rec loop st =
    if Buffer.length buf = 0 then print_string "cypher> "
    else print_string "   ...> ";
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let trimmed = String.trim line in
        if Buffer.length buf = 0 && String.length trimmed > 0
           && trimmed.[0] = ':'
        then
          match handle_command st trimmed with
          | Some st -> loop st
          | None -> ()
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if String.length trimmed > 0
             && trimmed.[String.length trimmed - 1] = ';'
          then begin
            let src = Buffer.contents buf in
            Buffer.clear buf;
            loop (run_statement st src)
          end
          else loop st
        end
  in
  print_endline "Cypher shell — :help for commands, statements end with ';'";
  loop st

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let semantics_arg =
  let doc = "Update semantics: $(b,legacy) (Cypher 9), $(b,revised) (the paper's proposal) or $(b,permissive)." in
  Arg.(value & opt string "revised" & info [ "semantics"; "s" ] ~docv:"MODE" ~doc)

let order_arg =
  let doc = "Record order for legacy clauses: $(b,forward), $(b,reverse) or $(b,seed:N)." in
  Arg.(value & opt string "forward" & info [ "order" ] ~docv:"ORDER" ~doc)

let file_arg =
  let doc = "Run the ;-separated Cypher statements in $(docv) before anything else." in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let interactive_arg =
  let doc = "Drop into the REPL after running $(b,--file)." in
  Arg.(value & flag & info [ "i"; "interactive" ] ~doc)

let db_arg =
  let doc =
    "Open (creating if needed) the durable database at $(docv): every \
     graph-changing statement is write-ahead journalled, and the graph is \
     recovered from snapshot + journal on startup."
  in
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"PATH" ~doc)

let no_fsync_arg =
  let doc = "Leave journal flushing to the OS instead of fsyncing every \
             commit (faster, loses the durability guarantee)." in
  Arg.(value & flag & info [ "no-fsync" ] ~doc)

let main semantics order file interactive db no_fsync =
  match (semantics_of_string semantics, order_of_string order) with
  | None, _ ->
      Fmt.epr "unknown semantics %S@." semantics;
      1
  | _, None ->
      Fmt.epr "unknown order %S@." order;
      1
  | Some config, Some ord -> (
      let config = Config.with_order ord config in
      let config =
        if no_fsync then Config.with_durability Config.Buffered config
        else config
      in
      let opened =
        match db with
        | None -> Ok (None, Session.create ~config Graph.empty)
        | Some dir -> (
            match Store.open_db ~config dir with
            | Ok (store, session) ->
                Fmt.pr "%s: %s@." dir (Recovery.describe (Store.recovery store));
                Ok (Some store, session)
            | Error m -> Error m)
      in
      match opened with
      | Error m ->
          Fmt.epr "error: %s@." m;
          1
      | Ok (store, session) ->
          let st = { session; store; show_stats = true } in
          let st = match file with None -> st | Some f -> load_file st f in
          if file = None || interactive then repl st;
          Option.iter Store.close store;
          0)

let cmd =
  let doc = "Interactive shell for the Cypher update-semantics engine" in
  let info = Cmd.info "cypher_shell" ~doc in
  Cmd.v info
    Term.(
      const main $ semantics_arg $ order_arg $ file_arg $ interactive_arg
      $ db_arg $ no_fsync_arg)

let () = exit (Cmd.eval' cmd)
