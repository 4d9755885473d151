module Xdm = Fixq_xdm
module Diag = Fixq_analysis.Diag
module Analyze = Fixq_analysis.Analyze
module Ivm = Fixq_ivm.Ivm
module Semiring = Fixq_semiring.Semiring

type config = {
  workers : int;
  prepared_capacity : int;
  result_capacity : int;
  max_iterations : int;
  timeout_ms : float option;
  stratified : bool;
  governor : Governor.config;
  state_dir : string option;
  snapshot_threshold : int;
}

let default_config =
  { workers = 1; prepared_capacity = 64; result_capacity = 256;
    max_iterations = 100_000; timeout_ms = None; stratified = false;
    governor = Governor.default_config; state_dir = None;
    snapshot_threshold = 64 }

(* What a snapshot needs to revive a maintained IVM entry: the query
   source (to re-prepare) and the result as portable (uri, preorder
   rank) node identities (to rebuild the item sequence against the
   reloaded trees). Recorded at adoption time, keyed like the result
   cache. *)
type persist_row = {
  p_source : string;
  p_stratified : bool;
  p_max_iterations : int;
  p_items : (string * int) list;
}

type t = {
  config : config;
  store : Store.t;
  prepared : (string, Prepared.t) Lru.t;
  results : Result_cache.t;
  metrics : Metrics.t;
  governor : Governor.t;
  ivm : Ivm.t;
      (** maintained fixpoint entries mirroring eligible result-cache
          entries; consulted by [patch-doc] *)
  started_at : float;
  ranks : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (** per-document preorder ranks, keyed by root node id — node ids
          are process-global and never reused, so entries never go
          stale (see {!keyed_items}) *)
  ranks_lock : Mutex.t;
  analysis_counters : (string, int) Hashtbl.t;
      (** divergence class of each freshly prepared query, plus
          refusals — exposed in stats JSON and Prometheus *)
  analysis_lock : Mutex.t;
  mutable durable : Durability.t option;
      (** the snapshot+WAL pair when running with [state_dir] — [None]
          during recovery replay, so replayed ops are not re-logged *)
  persist : (Result_cache.key, persist_row) Hashtbl.t;
  persist_lock : Mutex.t;
  mutable recovered_stats : (string * Json.t) list;
      (** what the last recovery restored (stats exposition) *)
}

(* [create] proper lives below the request handlers: recovery replays
   WAL ops through them. *)
let create_raw ?(config = default_config) ?(store = Store.create ()) () =
  { config; store;
    prepared = Lru.create ~capacity:config.prepared_capacity ();
    results = Result_cache.create ~capacity:config.result_capacity ();
    metrics = Metrics.create (); governor = Governor.create config.governor;
    ivm =
      Ivm.create ~capacity:config.result_capacity
        ~registry:(Store.registry store) ();
    started_at = Unix.gettimeofday ();
    ranks = Hashtbl.create 8; ranks_lock = Mutex.create ();
    analysis_counters = Hashtbl.create 8; analysis_lock = Mutex.create ();
    durable = None; persist = Hashtbl.create 8;
    persist_lock = Mutex.create (); recovered_stats = [] }

let bump_analysis t key =
  Mutex.lock t.analysis_lock;
  Hashtbl.replace t.analysis_counters key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.analysis_counters key));
  Mutex.unlock t.analysis_lock

let analysis_counter_rows t =
  Mutex.lock t.analysis_lock;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.analysis_counters [] in
  Mutex.unlock t.analysis_lock;
  List.sort compare rows

let store t = t.store
let config t = t.config
let governor t = t.governor

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let mode_string = function
  | Fixq.Naive -> "naive"
  | Fixq.Delta -> "delta"
  | Fixq.Auto -> "auto"

let preview query =
  let flat =
    String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) query
  in
  if String.length flat <= 60 then flat else String.sub flat 0 57 ^ "..."

(* Prepared-query cache: keyed by source text (and the stratified flag,
   which changes both distributivity checks). *)
let get_prepared t ~stratified ~max_iterations query =
  let key = (if stratified then "s|" else "p|") ^ query in
  match Lru.find t.prepared key with
  | Some p ->
    (* still a hit — only the synopsis-dependent cost estimate is
       dropped (to be re-run on next use) when documents changed *)
    let p' = Prepared.refresh ~store:t.store p in
    if p' != p then Lru.put t.prepared key p';
    (p', "hit")
  | None ->
    let p = Prepared.prepare ~store:t.store ~stratified ~max_iterations query in
    (match Prepared.divergence p with
    | Some d -> bump_analysis t (Analyze.divergence_string d)
    | None -> ());
    (match Prepared.semiring p with
    | Some k -> bump_analysis t ("semiring:" ^ Semiring.kind_to_string k)
    | None -> ());
    Lru.put t.prepared key p;
    (p, "miss")

let diag_json (d : Diag.t) =
  let line, col = match d.Diag.loc with Some lc -> lc | None -> (0, 0) in
  Json.Obj
    [ ("severity", Json.Str (Diag.severity_string d.Diag.severity));
      ("code", Json.Str d.Diag.code);
      ("line", Json.of_int line);
      ("col", Json.of_int col);
      ("context", Json.Str d.Diag.context);
      ("message", Json.Str d.Diag.message) ]

(* ------------------------------------------------------------------ *)
(* Cross-process node identity                                         *)
(* ------------------------------------------------------------------ *)

(* Two workers that loaded the same document (same XML bytes, path, or
   generator+seed) hold structurally identical trees, so a node's
   preorder position within its tree — element, then its attributes,
   then its children, the id order documented in [Node] — names the
   same node in both processes. [keyed_items] tags each result item
   with that portable identity so a cluster coordinator can unite
   result slices by node identity and document order, reproducing
   byte-for-byte what a single process would serialize. *)

let rank_table root =
  let tbl = Hashtbl.create 256 in
  let next = ref 0 in
  let rec walk n =
    Hashtbl.replace tbl n.Xdm.Node.id !next;
    incr next;
    List.iter walk (Xdm.Node.attributes n);
    List.iter walk (Xdm.Node.children n)
  in
  walk root;
  tbl

let rank_of t root =
  Mutex.lock t.ranks_lock;
  let tbl =
    match Hashtbl.find_opt t.ranks root.Xdm.Node.id with
    | Some tbl -> tbl
    | None ->
      let tbl = rank_table root in
      Hashtbl.replace t.ranks root.Xdm.Node.id tbl;
      tbl
  in
  Mutex.unlock t.ranks_lock;
  tbl

let keyed_items t (items : Xdm.Item.seq) =
  Json.List
    (List.map
       (fun item ->
         match (item : Xdm.Item.t) with
         | Xdm.Item.N n -> (
           let root = Xdm.Node.root n in
           let xml = Xdm.Serializer.to_string n in
           match Xdm.Node.uri root with
           | Some u ->
             let rank =
               match Hashtbl.find_opt (rank_of t root) n.Xdm.Node.id with
               | Some r -> r
               | None -> -1 (* detached from its indexed tree; content key *)
             in
             if rank >= 0 then
               Json.Obj
                 [ ("u", Json.Str u); ("r", Json.of_int rank);
                   ("x", Json.Str xml) ]
             else Json.Obj [ ("k", Json.Str ("x:" ^ xml)); ("x", Json.Str xml) ]
           | None ->
             (* constructed node: no portable identity; key by content.
                Distributive bodies never construct (constructors void
                the verdict), so the scatter path never lands here. *)
             Json.Obj [ ("k", Json.Str ("x:" ^ xml)); ("x", Json.Str xml) ])
         | Xdm.Item.A a ->
           let s = Xdm.Serializer.escape_text (Xdm.Atom.to_string a) in
           Json.Obj [ ("k", Json.Str ("a:" ^ s)); ("x", Json.Str s) ])
       items)

(* Record the snapshot-persistable identity of a just-adopted IVM
   entry: possible exactly when every result item is a node with a
   portable (uri, preorder rank) identity — the same condition the
   cluster's keyed merge needs. Anything else clears the row. *)
let record_persist t key ~query ~stratified ~max_iterations items =
  if t.durable <> None then begin
    let rows =
      List.fold_left
        (fun acc item ->
          match (acc, (item : Xdm.Item.t)) with
          | (None, _) | (_, Xdm.Item.A _) -> None
          | (Some acc, Xdm.Item.N n) -> (
            let root = Xdm.Node.root n in
            match Xdm.Node.uri root with
            | None -> None
            | Some u -> (
              match Hashtbl.find_opt (rank_of t root) n.Xdm.Node.id with
              | Some r -> Some ((u, r) :: acc)
              | None -> None)))
        (Some []) items
    in
    Mutex.lock t.persist_lock;
    (match rows with
    | Some rows ->
      Hashtbl.replace t.persist key
        { p_source = query; p_stratified = stratified;
          p_max_iterations = max_iterations; p_items = List.rev rows }
    | None -> Hashtbl.remove t.persist key);
    Mutex.unlock t.persist_lock
  end

let handle_run t ~id
    { Protocol.query; engine; mode; stratified; max_iterations; timeout_ms;
      cache; partition } =
  (* A budget is an explicit request-level iteration or time bound, or
     a server-wide timeout. The config's max_iterations default is a
     backstop, not a budget the caller chose. *)
  let unbudgeted =
    max_iterations = None && timeout_ms = None && t.config.timeout_ms = None
  in
  let stratified = Option.value ~default:t.config.stratified stratified in
  let max_iterations =
    Option.value ~default:t.config.max_iterations max_iterations
  in
  let timeout_ms =
    match timeout_ms with Some _ as x -> x | None -> t.config.timeout_ms
  in
  let generation = Store.generation t.store in
  let (prepared, prepared_status) =
    get_prepared t ~stratified ~max_iterations query
  in
  match (if unbudgeted then Prepared.divergence prepared else None) with
  | Some (Analyze.May_diverge reason) ->
    bump_analysis t "refused";
    (* An unstable [accumulate by] semiring gets its own code so
       clients can distinguish "your aggregate cannot stabilize" from
       the structural may-diverge verdict. *)
    let code =
      match Prepared.semiring prepared with
      | Some k when Semiring.stability k = Semiring.Unstable -> "FQ043"
      | _ -> "FQ040"
    in
    Protocol.error_response ~id
      ~extra:
        [ ("code", Json.Str code);
          ("divergence", Json.Str "may-diverge");
          ("reason", Json.Str reason) ]
      (Printf.sprintf
         "query may diverge (%s) and carries no budget: set \
          max_iterations or timeout_ms"
         reason)
  | _ ->
  (* [engine:"auto"]: resolve to the cost model's cheapest engine before
     anything downstream — cache keys, pinned modes and execution all see
     a plain fixed engine, so an auto run is byte-identical to the same
     request with the chosen engine spelled out. *)
  let auto = engine = `Auto in
  let engine =
    match engine with
    | `Auto -> Prepared.chosen_engine prepared
    | (`Interp | `Algebra | `Sql) as e -> e
  in
  let engine_str =
    match engine with
    | `Interp -> "interp"
    | `Algebra -> "algebra"
    | `Sql -> "sql"
  in
  (* Without an envelope nothing reads the cost model, so a plain run
     never pays for the estimate (nor, off the interpreter, for it
     forcing the compiled plan). *)
  let over_envelope =
    match (Governor.config t.governor).Governor.max_cost with
    | Some envelope ->
      let predicted = Prepared.predicted_cost prepared engine in
      if predicted > envelope then Some (envelope, predicted) else None
    | None -> None
  in
  match over_envelope with
  | Some (envelope, predicted_cost) when unbudgeted ->
    (* Admission control: predicted cost exceeds the governor envelope
       and the caller brought no budget of their own. *)
    bump_analysis t "refused-cost";
    Protocol.error_response ~id
      ~extra:
        [ ("code", Json.Str "FQ055");
          ("engine", Json.Str engine_str);
          ("estimated_cost", Json.Num (Float.round predicted_cost));
          ("max_cost", Json.Num envelope);
          ("rounds_bound",
           (match Prepared.rounds_bound prepared with
           | Some b -> Json.of_int b
           | None -> Json.Null)) ]
      (Printf.sprintf
         "predicted cost %.0f exceeds the admission envelope %.0f and the \
          request carries no budget: set max_iterations or timeout_ms"
         predicted_cost envelope)
  | _ ->
  (* Budgeted but over the envelope: down-budget the iteration cap to
     the certified round bound — the run cannot legitimately need more
     rounds, so this only cuts runaway headroom. *)
  let down_budgeted =
    match over_envelope with
    | Some (_, predicted_cost) -> (
      match Prepared.rounds_bound prepared with
      | Some bound when bound < max_iterations -> Some (bound, predicted_cost)
      | _ -> None)
    | None -> None
  in
  let max_iterations =
    match down_budgeted with Some (bound, _) -> bound | None -> max_iterations
  in
  let run_mode =
    match mode with
    | `Pinned ->
      Prepared.mode_for prepared
        (engine :> [ `Interp | `Algebra | `Sql | `Auto ])
    | `Naive -> Fixq.Naive
    | `Delta -> Fixq.Delta
  in
  let rkey =
    { Result_cache.hash = prepared.Prepared.hash;
      config =
        Printf.sprintf "%s:%s:%b" engine_str (mode_string run_mode) stratified }
  in
  let respond ~result_status ?(extra = []) (entry : Result_cache.entry) =
    let annotated =
      match entry.Result_cache.semiring with
      | None -> []
      | Some kind ->
        [ ("semiring", Json.Str kind);
          ("annotations",
           Json.List
             (List.map
                (fun (x, a) ->
                  Json.Obj [ ("x", Json.Str x); ("a", Json.Str a) ])
                entry.Result_cache.annotations)) ]
    in
    let cost_extra =
      (if auto then [ ("chosen_by", Json.Str "cost") ] else [])
      @
      match down_budgeted with
      | Some (bound, predicted_cost) ->
        [ ("down_budgeted", Json.of_int bound);
          ("estimated_cost", Json.Num (Float.round predicted_cost)) ]
      | None -> []
    in
    Protocol.ok_response ~id
      ([ ("engine", Json.Str engine_str);
         ("mode", Json.Str (mode_string run_mode));
         ("used_delta", Json.of_bool_opt entry.Result_cache.used_delta);
         ("prepared_cache", Json.Str prepared_status);
         ("result_cache", Json.Str result_status);
         ("generation", Json.of_int generation);
         ("nodes_fed", Json.of_int entry.Result_cache.nodes_fed);
         ("depth", Json.of_int entry.Result_cache.depth);
         ("result", Json.Str entry.Result_cache.serialized) ]
      @ cost_extra @ annotated @ extra
      @ [ ("wall_ms", Json.Num entry.Result_cache.wall_ms) ])
  in
  (* Partitioned runs (the cluster's scatter legs) always execute: the
     keyed item list cannot be rebuilt from a cached serialization, and
     the coordinator only scatters cold or invalidated work anyway. *)
  let cache = cache && partition = None in
  let current uri = Store.doc_generation t.store uri in
  match (if cache then Result_cache.find t.results rkey ~current else None) with
  | Some entry -> respond ~result_status:"hit" entry
  | None ->
    let deadline =
      Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0)) timeout_ms
    in
    let fixq_engine =
      match engine with
      | `Interp -> Fixq.Interpreter run_mode
      | `Algebra -> Fixq.Algebra run_mode
      | `Sql -> Fixq.Sql run_mode
    in
    (* A scatter leg runs a rewritten program, whose sites are not the
       prepared entry's: it compiles into a table of its own. *)
    let program, sites =
      match partition with
      | None -> (prepared.Prepared.program, Some prepared.Prepared.sites)
      | Some (index, count) ->
        ( Fixq.partition_first_seed ~index ~count prepared.Prepared.program,
          None )
    in
    let report, footprint =
      Store.track t.store (fun () ->
          Governor.with_memory_budget t.governor (fun ~round_check ->
              Fixq.run_program ~registry:(Store.registry t.store)
                ~max_iterations ~stratified ?deadline ~round_hook:round_check
                ?sites
                ?max_call_depth:
                  (Governor.config t.governor).Governor.max_call_depth
                ~engine:fixq_engine program))
    in
    let entry =
      { Result_cache.serialized =
          Xdm.Serializer.seq_to_string report.Fixq.result;
        used_delta = report.Fixq.used_delta;
        nodes_fed = report.Fixq.nodes_fed; depth = report.Fixq.depth;
        wall_ms = report.Fixq.wall_ms; footprint;
        semiring = report.Fixq.semiring;
        annotations = report.Fixq.annotations }
    in
    (* Cache only when no document changed under the evaluation: a
       concurrent load-doc would make this entry's footprint stamps a
       lie. *)
    if cache && Store.generation t.store = generation then begin
      Result_cache.put t.results rkey entry;
      (* Eligible fixpoints additionally become maintained entries so a
         later patch-doc can update the cached bytes differentially. *)
      Ivm.adopt t.ivm ~hash:rkey.Result_cache.hash
        ~config:rkey.Result_cache.config ~program:prepared.Prepared.program
        ~stratified ~max_iterations ~result:report.Fixq.result ~footprint;
      record_persist t rkey ~query ~stratified ~max_iterations
        report.Fixq.result
    end;
    Metrics.record t.metrics ~key:prepared.Prepared.hash
      ~label:(preview query) ~ms:report.Fixq.wall_ms;
    let extra =
      match partition with
      | None -> []
      | Some (index, count) ->
        [ ("partition", Json.Str (Printf.sprintf "%d/%d" index count));
          ("keyed", keyed_items t report.Fixq.result) ]
    in
    respond ~result_status:"miss" ~extra entry

(* prepare: warm the prepared-query LRU (parse + static check + both
   verdicts + pinned modes + compiled plan + cost estimate) without
   executing — the cluster coordinator uses this to warm every replica
   before traffic. *)
let handle_prepare t ~id query stratified =
  let stratified = Option.value ~default:t.config.stratified stratified in
  let (p, prepared_status) =
    get_prepared t ~stratified ~max_iterations:t.config.max_iterations query
  in
  let c = Prepared.compiled p in
  ignore (Prepared.cost p);
  Protocol.ok_response ~id
    [ ("prepared_cache", Json.Str prepared_status);
      ("hash", Json.Str p.Prepared.hash);
      ("ifp_count", Json.of_int p.Prepared.ifp_count);
      ("interp_mode", Json.Str (mode_string p.Prepared.interp_mode));
      ("algebra_mode", Json.Str (mode_string c.Prepared.algebra_mode));
      ("has_plan", Json.Bool (c.Prepared.plan <> None));
      ("prepare_ms", Json.Num p.Prepared.prepare_ms) ]

let handle_check t ~id query stratified =
  let stratified = Option.value ~default:t.config.stratified stratified in
  let (p, prepared_status) =
    get_prepared t ~stratified ~max_iterations:t.config.max_iterations query
  in
  let first = match p.Prepared.analysis.Analyze.ifps with
    | r :: _ -> Some r
    | [] -> None
  in
  let c = Prepared.compiled p in
  let cost = Prepared.cost p in
  Protocol.ok_response ~id
    [ ("ifp_count", Json.of_int p.Prepared.ifp_count);
      ("syntactic", Json.Bool p.Prepared.syntactic);
      ("algebraic", Json.of_bool_opt c.Prepared.algebraic);
      ("interp_mode", Json.Str (mode_string p.Prepared.interp_mode));
      ("algebra_mode", Json.Str (mode_string c.Prepared.algebra_mode));
      ("stratified", Json.Bool stratified);
      ("warnings",
       Json.List (List.map (fun w -> Json.Str w) p.Prepared.warnings));
      ("diagnostics",
       Json.List (List.map diag_json (Prepared.diagnostics p)));
      ("divergence",
       (match Prepared.divergence p with
       | Some d -> Json.Str (Analyze.divergence_string d)
       | None -> Json.Null));
      ("semiring",
       (match Prepared.semiring p with
       | Some k -> Json.Str (Semiring.kind_to_string k)
       | None -> Json.Null));
      ("convergence",
       (match Prepared.semiring p with
       | Some k -> Json.Str (Semiring.stability_string (Semiring.stability k))
       | None -> Json.Null));
      ("node_only",
       Json.of_bool_opt
         (Option.map
            (fun r -> r.Analyze.node_only_seed && r.Analyze.node_only_body)
            first));
      ("ivm",
       Json.Str
         (Analyze.ivm_string
            (Analyze.ivm_eligibility ~stratified p.Prepared.program)));
      ("blocking",
       (match c.Prepared.push with
       | Some { Fixq_algebra.Push.blocking = Some b; _ } -> Json.Str b
       | _ -> Json.Null));
      ("sql_renderable",
       Json.of_bool_opt (Option.map Result.is_ok c.Prepared.sql));
      ("sql_reason",
       (match c.Prepared.sql with
       | Some (Error reason) -> Json.Str reason
       | Some (Ok _) | None -> Json.Null));
      ("rounds_bound",
       (match cost.Fixq_cost.Estimate.rounds_bound with
       | Some b -> Json.of_int b
       | None -> Json.Null));
      ("bound_reason", Json.Str cost.Fixq_cost.Estimate.bound_reason);
      ("estimated_cost",
       Json.Obj
         (List.map
            (fun e ->
              ( e.Fixq_cost.Estimate.eng_name,
                Json.Num (Float.round e.Fixq_cost.Estimate.eng_cost) ))
            cost.Fixq_cost.Estimate.engines));
      ("chosen_engine", Json.Str cost.Fixq_cost.Estimate.chosen);
      ("prepared_cache", Json.Str prepared_status) ]

let handle_plan t ~id query stratified =
  let stratified = Option.value ~default:t.config.stratified stratified in
  let (p, prepared_status) =
    get_prepared t ~stratified ~max_iterations:t.config.max_iterations query
  in
  let c = Prepared.compiled p in
  match c.Prepared.plan with
  | None ->
    Protocol.error_response ~id
      "no compilable IFP body found (interpreter-only query)"
  | Some (_, plan) ->
    let cards =
      Fixq_cost.Estimate.plan_cards ~registry:(Store.registry t.store) plan
    in
    let annot p =
      Some ("card " ^ Fixq_cost.Estimate.interval_string (cards p))
    in
    Protocol.ok_response ~id
      [ ("distributive", Json.of_bool_opt c.Prepared.algebraic);
        ("prepared_cache", Json.Str prepared_status);
        ("plan", Json.Str (Fixq_algebra.Render.to_ascii_annotated ~annot plan)) ]

(* explain: the full cost report — per-engine estimates, certified round
   bound, per-operator cardinality table — without executing anything. *)
let handle_explain t ~id query stratified =
  let stratified = Option.value ~default:t.config.stratified stratified in
  let (p, prepared_status) =
    get_prepared t ~stratified ~max_iterations:t.config.max_iterations query
  in
  let module E = Fixq_cost.Estimate in
  let c = Prepared.cost p in
  Protocol.ok_response ~id
    [ ("prepared_cache", Json.Str prepared_status);
      ("work", Json.Num (Float.round c.E.work));
      ("result_card", Json.Str (E.interval_string c.E.result_card));
      ("rounds_bound",
       (match c.E.rounds_bound with
       | Some b -> Json.of_int b
       | None -> Json.Null));
      ("bound_reason", Json.Str c.E.bound_reason);
      ("engines",
       Json.List
         (List.map
            (fun e ->
              Json.Obj
                [ ("name", Json.Str e.E.eng_name);
                  ("cost", Json.Num (Float.round e.E.eng_cost));
                  ("native", Json.Bool e.E.eng_native);
                  ("note", Json.Str e.E.eng_note) ])
            c.E.engines));
      ("chosen", Json.Str c.E.chosen);
      ("choice_reason", Json.Str c.E.choice_reason);
      ("operators",
       Json.List
         (List.map
            (fun r ->
              Json.Obj
                ([ ("desc", Json.Str r.E.op_desc);
                   ("depth", Json.of_int r.E.op_depth);
                   ("card", Json.Str (E.interval_string r.E.op_card)) ]
                @ (match r.E.op_loc with
                  | Some (l, col) ->
                    [ ("line", Json.of_int l); ("col", Json.of_int col) ]
                  | None -> [])
                @
                match r.E.op_note with
                | Some n -> [ ("note", Json.Str n) ]
                | None -> []))
            c.E.rows));
      ("diagnostics", Json.List (List.map diag_json c.E.diagnostics));
      ("text", Json.Str (E.to_text c)) ]

let handle_load_doc t ~id uri (source : Protocol.doc_source) =
  (match source with
  | Protocol.From_xml xml -> Store.load_xml t.store ~uri xml
  | Protocol.From_path path -> Store.load_file t.store ~uri path
  | Protocol.From_generator { kind; size; seed } ->
    let size =
      match size with
      | Some s -> s
      | None -> (
        match kind with "xmark" -> 0.002 | "hospital" -> 1000.0 | _ -> 100.0)
    in
    Store.load_generated t.store ~uri ~kind ~size ~seed);
  (* A wholesale replacement leaves nothing to remap a maintained entry
     through — only patch-doc preserves node identity. *)
  Ivm.on_unload t.ivm ~uri;
  Protocol.ok_response ~id
    [ ("uri", Json.Str uri);
      ("generation", Json.of_int (Store.generation t.store)) ]

let handle_patch_doc t ~id uri op =
  let t0 = Unix.gettimeofday () in
  let delta = Store.patch t.store ~uri op in
  let outcomes =
    Ivm.on_patch t.ivm ~uri ~op delta
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let current u = Store.doc_generation t.store u in
  let maintained = ref 0 in
  let dropped = ref 0 in
  let entry_rows =
    List.map
      (fun ((hash, config), outcome) ->
        let key = { Result_cache.hash; config } in
        let base =
          [ ("hash", Json.Str hash); ("config", Json.Str config) ]
        in
        match (outcome : Ivm.outcome) with
        | Ivm.Maintained { serialized; delta_count; rounds } ->
          incr maintained;
          (match
             List.find_opt
               (fun (k, _) -> k = key)
               (Result_cache.bindings t.results)
           with
          | Some (_, entry) ->
            (* Refresh the cached bytes in place. Only the patched
               document's stamp advances; the rest of the footprint
               keeps its recorded generations, so an unrelated
               concurrent load still invalidates as before. *)
            Result_cache.put t.results key
              { entry with
                Result_cache.serialized;
                footprint =
                  List.map
                    (fun (u, g) -> (u, if u = uri then current u else g))
                    entry.Result_cache.footprint }
          | None -> ());
          Json.Obj
            (base
            @ [ ("outcome", Json.Str "maintained");
                ("delta", Json.of_int delta_count);
                ("rounds", Json.of_int rounds) ])
        | Ivm.Dropped reason ->
          incr dropped;
          Result_cache.remove t.results key;
          Json.Obj
            (base
            @ [ ("outcome", Json.Str "recompute");
                ("reason", Json.Str reason) ]))
      outcomes
  in
  Protocol.ok_response ~id
    [ ("uri", Json.Str uri);
      ("path", Json.Str (Xdm.Patch.path_of_op op));
      ("generation", Json.of_int (Store.generation t.store));
      ("doc_generation", Json.of_int (current uri));
      ("inserted", Json.of_int delta.Xdm.Patch.inserted_count);
      ("deleted", Json.of_int (List.length delta.Xdm.Patch.deleted));
      ("maintained", Json.of_int !maintained);
      ("recompute", Json.of_int !dropped);
      ("entries", Json.List entry_rows);
      ("wall_ms", Json.Num ((Unix.gettimeofday () -. t0) *. 1000.0)) ]

(* ------------------------------------------------------------------ *)
(* Durability: snapshot + WAL                                          *)
(* ------------------------------------------------------------------ *)

(* WAL op payloads are exactly the protocol's request objects, so
   replay reuses [Protocol.parse_request] and the handlers above. *)

let op_json_of_load uri (source : Protocol.doc_source) =
  match source with
  | Protocol.From_xml xml ->
    Json.Obj
      [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
        ("xml", Json.Str xml) ]
  | Protocol.From_path path ->
    (* never logged: materialized to [From_xml] before the append so
       replay does not depend on the file still being there *)
    Json.Obj
      [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
        ("path", Json.Str path) ]
  | Protocol.From_generator { kind; size; seed } ->
    (* generators are deterministic in (kind, size, seed): logging the
       parameters replays the identical tree without materializing it *)
    Json.Obj
      ([ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
         ("generate", Json.Str kind) ]
      @ (match size with Some s -> [ ("size", Json.Num s) ] | None -> [])
      @ [ ("seed", Json.of_int seed) ])

let op_json_of_unload uri =
  Json.Obj [ ("op", Json.Str "unload-doc"); ("uri", Json.Str uri) ]

let op_json_of_patch uri (op : Xdm.Patch.op) =
  let base action fields =
    Json.Obj
      ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str uri);
         ("action", Json.Str action);
         ("path", Json.Str (Xdm.Patch.path_of_op op)) ]
      @ fields)
  in
  match op with
  | Xdm.Patch.Insert { position; xml; _ } ->
    base "insert"
      [ ("position", Json.Str (Xdm.Patch.string_of_position position));
        ("xml", Json.Str xml) ]
  | Xdm.Patch.Delete _ -> base "delete" []
  | Xdm.Patch.Replace { xml; _ } -> base "replace" [ ("xml", Json.Str xml) ]
  | Xdm.Patch.Set_text { text; _ } ->
    base "set-text" [ ("text", Json.Str text) ]

(* Append-before-apply: [f] only runs once the record is on disk;
   if [f] raises, the record is rewound so replay never applies a
   failed op. Transparent when no state dir is configured. *)
let logged t op f =
  match t.durable with
  | None -> f ()
  | Some d -> Durability.with_op d op f

(* The snapshot's view of the server, evaluated under the durability op
   lock so no document op is in flight: documents (in construction
   order — node ids grow monotonically, so sorting roots by id replays
   registrations in a compatible order), every per-URI generation
   stamp, and the live result-cache rows (with IVM revival info where
   recorded). *)
let snapshot_state t () =
  let reg = Store.registry t.store in
  let docs =
    Store.uris t.store
    |> List.filter_map (fun u ->
           Option.map
             (fun d -> (d.Xdm.Node.id, u, Xdm.Serializer.to_string d))
             (Xdm.Doc_registry.find ~registry:reg u))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let doc_rows =
    List.map
      (fun (_, u, x) ->
        Json.Obj
          [ ("t", Json.Str "doc"); ("u", Json.Str u); ("x", Json.Str x) ])
      docs
  in
  let bindings = Result_cache.bindings t.results in
  Mutex.lock t.persist_lock;
  (* drop persist rows whose cache entry was evicted (bounds the table) *)
  let live = Hashtbl.create 16 in
  List.iter (fun (k, _) -> Hashtbl.replace live k ()) bindings;
  Hashtbl.iter
    (fun k _ -> if not (Hashtbl.mem live k) then Hashtbl.remove t.persist k)
    (Hashtbl.copy t.persist);
  let persist_of k = Hashtbl.find_opt t.persist k in
  let cache_rows =
    List.rev_map
      (fun ((key : Result_cache.key), (e : Result_cache.entry)) ->
        let ivm_field =
          match persist_of key with
          | None -> []
          | Some p ->
            [ ( "ivm",
                Json.Obj
                  [ ("source", Json.Str p.p_source);
                    ("stratified", Json.Bool p.p_stratified);
                    ("max_iterations", Json.of_int p.p_max_iterations);
                    ("items",
                     Json.List
                       (List.map
                          (fun (u, r) ->
                            Json.Obj
                              [ ("u", Json.Str u); ("r", Json.of_int r) ])
                          p.p_items)) ] ) ]
        in
        Json.Obj
          ([ ("t", Json.Str "cache");
             ("hash", Json.Str key.Result_cache.hash);
             ("config", Json.Str key.Result_cache.config);
             ("serialized", Json.Str e.Result_cache.serialized);
             ("used_delta", Json.of_bool_opt e.Result_cache.used_delta);
             ("nodes_fed", Json.of_int e.Result_cache.nodes_fed);
             ("depth", Json.of_int e.Result_cache.depth);
             ("wall_ms", Json.Num e.Result_cache.wall_ms);
             ("footprint",
              Json.List
                (List.map
                   (fun (u, g) ->
                     Json.Obj [ ("u", Json.Str u); ("g", Json.of_int g) ])
                   e.Result_cache.footprint));
             ("semiring",
              (match e.Result_cache.semiring with
              | Some s -> Json.Str s
              | None -> Json.Null));
             ("annotations",
              Json.List
                (List.map
                   (fun (x, a) ->
                     Json.Obj [ ("x", Json.Str x); ("a", Json.Str a) ])
                   e.Result_cache.annotations)) ]
          @ ivm_field))
      bindings
  in
  Mutex.unlock t.persist_lock;
  let meta =
    [ ("generation", Json.of_int (Store.generation t.store));
      ("gens",
       Json.List
         (List.map
            (fun (u, g) ->
              Json.Obj [ ("u", Json.Str u); ("g", Json.of_int g) ])
            (Xdm.Doc_registry.generations ~registry:reg ()))) ]
  in
  (meta, doc_rows @ List.rev cache_rows)

let force_snapshot t =
  match t.durable with
  | None -> Error "snapshot requires a server started with --state-dir"
  | Some d -> Durability.snapshot d ~state:(snapshot_state t)

let maybe_snapshot t =
  match t.durable with
  | Some d when Durability.due d -> ignore (force_snapshot t)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(* Invert the preorder rank: nodes of [root] as an array indexed by
   rank (the walk order of [rank_table]). *)
let nodes_by_rank root =
  let acc = ref [] in
  let rec walk n =
    acc := n :: !acc;
    List.iter walk (Xdm.Node.attributes n);
    List.iter walk (Xdm.Node.children n)
  in
  walk root;
  Array.of_list (List.rev !acc)

(* Best-effort revival of one maintained IVM entry: re-prepare the
   source, rebuild the item sequence from (uri, rank) identities
   against the reloaded trees, and re-adopt. Any mismatch (document
   gone, rank out of range, program no longer eligible) silently
   degrades to "cached result without maintenance" — correct, just
   slower on the next patch. *)
let readopt_ivm t ~key ~footprint iv =
  match
    ( Json.str_opt (Json.member "source" iv),
      Json.bool_opt (Json.member "stratified" iv),
      Json.int_opt (Json.member "max_iterations" iv) )
  with
  | (Some source, Some stratified, Some max_iterations) -> (
    let items =
      match Json.member "items" iv with
      | Json.List rows ->
        List.map
          (fun r ->
            match
              ( Json.str_opt (Json.member "u" r),
                Json.int_opt (Json.member "r" r) )
            with
            | (Some u, Some rank) -> (u, rank)
            | _ -> raise Exit)
          rows
      | _ -> raise Exit
    in
    let reg = Store.registry t.store in
    let by_root : (string, Xdm.Node.t array) Hashtbl.t = Hashtbl.create 4 in
    let result =
      List.map
        (fun (u, rank) ->
          let arr =
            match Hashtbl.find_opt by_root u with
            | Some arr -> arr
            | None -> (
              match Xdm.Doc_registry.find ~registry:reg u with
              | None -> raise Exit
              | Some root ->
                let arr = nodes_by_rank root in
                Hashtbl.replace by_root u arr;
                arr)
          in
          if rank >= 0 && rank < Array.length arr then Xdm.Item.N arr.(rank)
          else raise Exit)
        items
    in
    let (prepared, _) = get_prepared t ~stratified ~max_iterations source in
    Ivm.adopt t.ivm ~hash:key.Result_cache.hash
      ~config:key.Result_cache.config ~program:prepared.Prepared.program
      ~stratified ~max_iterations ~result ~footprint;
    Mutex.lock t.persist_lock;
    Hashtbl.replace t.persist key
      { p_source = source; p_stratified = stratified;
        p_max_iterations = max_iterations; p_items = items };
    Mutex.unlock t.persist_lock;
    true)
  | _ -> false

let restore_cache_row t row =
  match
    ( Json.str_opt (Json.member "hash" row),
      Json.str_opt (Json.member "config" row),
      Json.str_opt (Json.member "serialized" row) )
  with
  | (Some hash, Some config, Some serialized) ->
    let pairs name fa fb =
      match Json.member name row with
      | Json.List l ->
        List.filter_map
          (fun r ->
            match (fa (Json.member "u" r), fb (Json.member "g" r)) with
            | (Some a, Some b) -> Some (a, b)
            | _ -> None)
          l
      | _ -> []
    in
    let annotations =
      match Json.member "annotations" row with
      | Json.List l ->
        List.filter_map
          (fun r ->
            match
              ( Json.str_opt (Json.member "x" r),
                Json.str_opt (Json.member "a" r) )
            with
            | (Some x, Some a) -> Some (x, a)
            | _ -> None)
          l
      | _ -> []
    in
    let footprint = pairs "footprint" Json.str_opt Json.int_opt in
    let key = { Result_cache.hash; config } in
    Result_cache.put t.results key
      { Result_cache.serialized;
        used_delta = Json.bool_opt (Json.member "used_delta" row);
        nodes_fed =
          Option.value ~default:0 (Json.int_opt (Json.member "nodes_fed" row));
        depth =
          Option.value ~default:0 (Json.int_opt (Json.member "depth" row));
        wall_ms =
          Option.value ~default:0.0
            (Json.num_opt (Json.member "wall_ms" row));
        footprint;
        semiring = Json.str_opt (Json.member "semiring" row);
        annotations };
    let revived =
      match Json.member "ivm" row with
      | Json.Obj _ as iv -> (
        try readopt_ivm t ~key ~footprint iv with _ -> false)
      | _ -> false
    in
    Some revived
  | _ -> None

(* Replay one WAL tail op through the live handlers (durability is
   still unset, so nothing is re-logged). A replayed op that fails
   failed identically before the crash — log-rewind keeps failed ops
   out of the WAL, so this is purely defensive. *)
let apply_recovered_op t op =
  match Protocol.parse_request op with
  | Ok (Protocol.Load_doc { uri; source }) -> (
    try
      ignore (handle_load_doc t ~id:Json.Null uri source);
      true
    with _ -> false)
  | Ok (Protocol.Unload_doc { uri }) ->
    Store.unload t.store uri;
    Ivm.on_unload t.ivm ~uri;
    true
  | Ok (Protocol.Patch_doc { uri; op }) -> (
    try
      ignore (handle_patch_doc t ~id:Json.Null uri op);
      true
    with _ -> false)
  | Ok _ | Error _ -> false

let recover_state t ~dir ~threshold =
  let r = Durability.recover ~dir in
  let docs = ref 0 in
  List.iter
    (fun (uri, xml) ->
      try
        Store.load_xml t.store ~uri xml;
        incr docs
      with Store.Error _ -> ())
    r.Durability.rec_docs;
  Xdm.Doc_registry.restore
    ~registry:(Store.registry t.store)
    ~gens:r.Durability.rec_gens ~generation:r.Durability.rec_generation ();
  let cache = ref 0 and ivm = ref 0 in
  List.iter
    (fun row ->
      match restore_cache_row t row with
      | Some revived ->
        incr cache;
        if revived then incr ivm
      | None -> ())
    r.Durability.rec_cache;
  let tail = ref 0 in
  List.iter
    (fun (_, op) -> if apply_recovered_op t op then incr tail)
    r.Durability.rec_tail;
  t.recovered_stats <-
    [ ("docs", Json.of_int !docs);
      ("tail_ops", Json.of_int !tail);
      ("cache_entries", Json.of_int !cache);
      ("ivm_entries", Json.of_int !ivm);
      ("truncated_bytes", Json.of_int r.Durability.rec_truncated_bytes);
      ("diagnostic",
       (match r.Durability.rec_diagnostic with
       | Some d -> Json.Str d
       | None -> Json.Null)) ];
  t.durable <- Some (Durability.start ~dir ~threshold r)

let create ?(config = default_config) ?store () =
  let t =
    match store with
    | Some store -> create_raw ~config ~store ()
    | None -> create_raw ~config ()
  in
  (match config.state_dir with
  | None -> ()
  | Some dir ->
    recover_state t ~dir ~threshold:config.snapshot_threshold);
  t

let cache_stats_json ~hits ~misses ~size ~capacity =
  Json.Obj
    [ ("hits", Json.of_int hits); ("misses", Json.of_int misses);
      ("size", Json.of_int size); ("capacity", Json.of_int capacity) ]

(* Process-wide set-kernel totals (merge/bitmap/name-index work done by
   every fixpoint round served so far), as label/value rows shared by
   the JSON and Prometheus expositions. *)
let kernel_counter_rows () =
  let c = Xdm.Counters.snapshot () in
  [ ("merges", c.Xdm.Counters.merges);
    ("merged_items", c.Xdm.Counters.merged_items);
    ("fallback_sorts", c.Xdm.Counters.fallback_sorts);
    ("bitmap_tests", c.Xdm.Counters.bitmap_tests);
    ("bitmap_hits", c.Xdm.Counters.bitmap_hits);
    ("index_steps", c.Xdm.Counters.index_steps);
    ("index_nodes", c.Xdm.Counters.index_nodes);
    ("col_batches", c.Xdm.Counters.col_batches);
    ("col_rows", c.Xdm.Counters.col_rows);
    ("col_boxed_rows", c.Xdm.Counters.col_boxed_rows);
    ("value_index_builds", c.Xdm.Counters.value_index_builds);
    ("value_index_probes", c.Xdm.Counters.value_index_probes) ]

(* Prometheus text exposition of the same counters the JSON stats
   report: cache hit/miss/size, registry generation, uptime, and the
   per-query execution aggregates from [Metrics]. Emitted by workers
   (scraped directly or relayed by the coordinator). *)
let prometheus_stats t =
  let buf = Buffer.create 1024 in
  let gauge name ?(labels = "") value =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" name
         (if labels = "" then "" else "{" ^ labels ^ "}")
         value)
  in
  let counter name value =
    Buffer.add_string buf
      (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name value)
  in
  let counter_family name samples =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
    List.iter
      (fun (labels, value) ->
        Buffer.add_string buf
          (Printf.sprintf "%s{%s} %d\n" name labels value))
      samples
  in
  gauge "fixq_uptime_seconds"
    (Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started_at));
  gauge "fixq_store_generation" (string_of_int (Store.generation t.store));
  gauge "fixq_documents" (string_of_int (List.length (Store.uris t.store)));
  (match t.durable with
  | None -> ()
  | Some d ->
    counter "fixq_wal_appends_total" (Durability.appends d);
    counter "fixq_snapshots_total" (Durability.snapshots d);
    gauge "fixq_wal_bytes" (string_of_int (Durability.wal_bytes d));
    gauge "fixq_wal_last_seq" (string_of_int (Durability.last_seq d));
    let stat name =
      match List.assoc_opt name t.recovered_stats with
      | Some (Json.Num n) -> int_of_float n
      | _ -> 0
    in
    gauge "fixq_recovery_replayed_ops" (string_of_int (stat "tail_ops"));
    gauge "fixq_recovery_truncated_bytes"
      (string_of_int (stat "truncated_bytes")));
  counter_family "fixq_cache_hits_total"
    [ ("cache=\"prepared\"", Lru.hits t.prepared);
      ("cache=\"results\"", Result_cache.hits t.results) ];
  counter_family "fixq_cache_misses_total"
    [ ("cache=\"prepared\"", Lru.misses t.prepared);
      ("cache=\"results\"", Result_cache.misses t.results) ];
  counter "fixq_plan_captures_total" (Prepared.plan_captures ());
  counter "fixq_cost_estimates_total" (Prepared.cost_estimates ());
  counter "fixq_algebra_compiles_total" (Fixq.algebra_compiles ());
  Buffer.add_string buf "# TYPE fixq_cache_entries gauge\n";
  List.iter
    (fun (label, v) ->
      Buffer.add_string buf
        (Printf.sprintf "fixq_cache_entries{cache=%S} %d\n" label v))
    [ ("prepared", Lru.length t.prepared);
      ("results", Result_cache.length t.results) ];
  counter_family "fixq_kernel_ops_total"
    (List.map
       (fun (k, v) -> (Printf.sprintf "kernel=%S" k, v))
       (kernel_counter_rows ()));
  gauge "fixq_inflight_requests"
    (string_of_int (Governor.inflight t.governor));
  counter_family "fixq_degraded_requests_total"
    (List.map
       (fun (k, v) -> (Printf.sprintf "reason=%S" k, v))
       (Governor.counter_rows t.governor));
  (match analysis_counter_rows t with
  | [] -> ()
  | rows ->
    let is_semiring k =
      String.length k > 9 && String.sub k 0 9 = "semiring:"
    in
    counter_family "fixq_prepared_divergence_total"
      (List.filter_map
         (fun (k, v) ->
           if k = "refused" || k = "refused-cost" || is_semiring k then None
           else Some (Printf.sprintf "class=%S" k, v))
         rows);
    (match List.filter (fun (k, _) -> is_semiring k) rows with
    | [] -> ()
    | semi ->
      counter_family "fixq_semiring_queries_total"
        (List.map
           (fun (k, v) ->
             ( Printf.sprintf "kind=%S"
                 (String.sub k 9 (String.length k - 9)),
               v ))
           semi));
    (match
       (List.assoc_opt "refused" rows, List.assoc_opt "refused-cost" rows)
     with
    | (None, None) -> ()
    | (diverge, cost) ->
      counter_family "fixq_refused_queries_total"
        ((match diverge with
         | Some n -> [ ("reason=\"may-diverge\"", n) ]
         | None -> [])
        @
        match cost with
        | Some n -> [ ("reason=\"cost\"", n) ]
        | None -> [])));
  gauge "fixq_ivm_entries" (string_of_int (Ivm.size t.ivm));
  (match Ivm.counters t.ivm with
  | [] -> ()
  | rows ->
    counter_family "fixq_ivm_maintained_total"
      (List.map (fun (h, (m, _, _)) -> (Printf.sprintf "query=%S" h, m)) rows);
    counter_family "fixq_ivm_fallback_recompute_total"
      (List.map (fun (h, (_, f, _)) -> (Printf.sprintf "query=%S" h, f)) rows);
    counter_family "fixq_ivm_delta_nodes_total"
      (List.map (fun (h, (_, _, d)) -> (Printf.sprintf "query=%S" h, d)) rows));
  Buffer.add_string buf (Metrics.to_prometheus ~prefix:"fixq" t.metrics);
  Buffer.contents buf

let durability_json t =
  match t.durable with
  | None -> Json.Null
  | Some d ->
    Json.Obj
      [ ("state_dir", Json.Str (Option.value ~default:"" t.config.state_dir));
        ("last_seq", Json.of_int (Durability.last_seq d));
        ("wal_bytes", Json.of_int (Durability.wal_bytes d));
        ("wal_appends", Json.of_int (Durability.appends d));
        ("snapshots", Json.of_int (Durability.snapshots d));
        ("ops_since_snapshot",
         Json.of_int (Durability.ops_since_snapshot d));
        ("recovered", Json.Obj t.recovered_stats) ]

let handle_stats t ~id =
  Protocol.ok_response ~id
    [ ("stats",
       Json.Obj
         [ ("generation", Json.of_int (Store.generation t.store));
           ("durability", durability_json t);
           ("documents",
            Json.List
              (List.map (fun u -> Json.Str u) (Store.uris t.store)));
           ("prepared",
            cache_stats_json ~hits:(Lru.hits t.prepared)
              ~misses:(Lru.misses t.prepared) ~size:(Lru.length t.prepared)
              ~capacity:(Lru.capacity t.prepared));
           ("plan_captures", Json.of_int (Prepared.plan_captures ()));
           ("cost_estimates", Json.of_int (Prepared.cost_estimates ()));
           ("algebra_compiles", Json.of_int (Fixq.algebra_compiles ()));
           ("results",
            cache_stats_json ~hits:(Result_cache.hits t.results)
              ~misses:(Result_cache.misses t.results)
              ~size:(Result_cache.length t.results)
              ~capacity:t.config.result_capacity);
           ("queries", Metrics.to_json t.metrics);
           ("kernels",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.of_int v))
                 (kernel_counter_rows ())));
           ("governor",
            Json.Obj
              (("inflight", Json.of_int (Governor.inflight t.governor))
              :: List.map
                   (fun (k, v) -> (k, Json.of_int v))
                   (Governor.counter_rows t.governor)));
           ("analysis",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.of_int v))
                 (analysis_counter_rows t)));
           ("ivm",
            (let m, f, d = Ivm.totals t.ivm in
             Json.Obj
               [ ("entries", Json.of_int (Ivm.size t.ivm));
                 ("maintained_total", Json.of_int m);
                 ("fallback_recompute_total", Json.of_int f);
                 ("delta_nodes_total", Json.of_int d);
                 ("queries",
                  Json.Obj
                    (List.map
                       (fun (hash, (m, f, d)) ->
                         ( hash,
                           Json.Obj
                             [ ("maintained", Json.of_int m);
                               ("fallback_recompute", Json.of_int f);
                               ("delta_nodes", Json.of_int d) ] ))
                       (Ivm.counters t.ivm))) ]));
           ("uptime_ms",
            Json.Num ((Unix.gettimeofday () -. t.started_at) *. 1000.0)) ]) ]

(* Chaos faults injected at the request boundary become the same
   degradations the governor produces naturally. *)
exception Chaos_fault of string

let chaos_handle_point () =
  match Fixq_chaos.check "server.handle" with
  | None -> ()
  | Some Fixq_chaos.Kill -> Fixq_chaos.kill_self ()
  | Some (Fixq_chaos.Delay s) -> Fixq_chaos.sleep s
  | Some Fixq_chaos.Oom -> raise Out_of_memory
  | Some Fixq_chaos.Drop -> raise (Chaos_fault "injected fault: drop")
  | Some Fixq_chaos.Truncate -> raise (Chaos_fault "injected fault: truncate")

let handle t request =
  let id = Protocol.request_id request in
  match Protocol.parse_request request with
  | Error msg -> (Protocol.error_response ~id msg, false)
  | Ok req -> (
    (* Only query work is subject to admission control: ping, stats and
       document ops must keep answering on a loaded server. *)
    let admitted =
      match req with
      | Protocol.Run _ | Protocol.Prepare _ | Protocol.Check _
      | Protocol.Plan _ | Protocol.Explain _ ->
        true
      | _ -> false
    in
    try
      if admitted then Governor.admit t.governor;
      Fun.protect
        ~finally:(fun () -> if admitted then Governor.release t.governor)
        (fun () ->
          chaos_handle_point ();
          match req with
          | Protocol.Run r -> (handle_run t ~id r, false)
          | Protocol.Prepare { query; stratified } ->
            (handle_prepare t ~id query stratified, false)
          | Protocol.Check { query; stratified } ->
            (handle_check t ~id query stratified, false)
          | Protocol.Plan { query; stratified } ->
            (handle_plan t ~id query stratified, false)
          | Protocol.Explain { query; stratified } ->
            (handle_explain t ~id query stratified, false)
          | Protocol.Load_doc { uri; source } ->
            (* materialize file sources before logging, so the WAL
               replays without the file *)
            let source =
              match source with
              | Protocol.From_path path when t.durable <> None ->
                Protocol.From_xml (Store.read_file path)
              | s -> s
            in
            let resp =
              logged t (op_json_of_load uri source) (fun () ->
                  handle_load_doc t ~id uri source)
            in
            maybe_snapshot t;
            (resp, false)
          | Protocol.Unload_doc { uri } ->
            let resp =
              logged t (op_json_of_unload uri) (fun () ->
                  Store.unload t.store uri;
                  Ivm.on_unload t.ivm ~uri;
                  Protocol.ok_response ~id
                    [ ("uri", Json.Str uri);
                      ("generation", Json.of_int (Store.generation t.store))
                    ])
            in
            maybe_snapshot t;
            (resp, false)
          | Protocol.Patch_doc { uri; op } ->
            let resp =
              logged t (op_json_of_patch uri op) (fun () ->
                  handle_patch_doc t ~id uri op)
            in
            maybe_snapshot t;
            (resp, false)
          | Protocol.Snapshot -> (
            match force_snapshot t with
            | Ok () ->
              let d = Option.get t.durable in
              ( Protocol.ok_response ~id
                  [ ("snapshot", Json.Bool true);
                    ("last_seq", Json.of_int (Durability.last_seq d));
                    ("wal_bytes", Json.of_int (Durability.wal_bytes d)) ],
                false )
            | Error msg -> (Protocol.error_response ~id msg, false))
          | Protocol.Dump_doc { uri } -> (
            match
              Xdm.Doc_registry.find ~registry:(Store.registry t.store) uri
            with
            | Some root ->
              ( Protocol.ok_response ~id
                  [ ("uri", Json.Str uri);
                    ("doc_generation",
                     Json.of_int (Store.doc_generation t.store uri));
                    ("xml", Json.Str (Xdm.Serializer.to_string root)) ],
                false )
            | None ->
              ( Protocol.error_response ~id
                  (Printf.sprintf "no document loaded under %S" uri),
                false ))
          | Protocol.Add_worker | Protocol.Remove_worker _ | Protocol.Drain _
            ->
            ( Protocol.error_response ~id
                "cluster-only op (send it to a fixq cluster coordinator)",
              false )
          | Protocol.Stats Protocol.Stats_json -> (handle_stats t ~id, false)
          | Protocol.Stats Protocol.Stats_prometheus ->
            ( Protocol.ok_response ~id
                [ ("prometheus", Json.Str (prometheus_stats t)) ],
              false )
          | Protocol.Ping ->
            (Protocol.ok_response ~id [ ("pong", Json.Bool true) ], false)
          | Protocol.Shutdown ->
            (* flush the WAL and install a final snapshot so a clean
               restart replays nothing *)
            (match t.durable with
            | Some d ->
              ignore (force_snapshot t);
              t.durable <- None;
              Durability.close d
            | None -> ());
            (Protocol.ok_response ~id [ ("shutdown", Json.Bool true) ], true))
    with
    | Prepared.Rejected { message; diagnostics } ->
      ( Protocol.error_response ~id
          ~extra:
            [ ("diagnostics", Json.List (List.map diag_json diagnostics)) ]
          message,
        false )
    | Store.Error msg | Fixq.Error msg | Chaos_fault msg ->
      (Protocol.error_response ~id msg, false)
    | Fixq_durable.Wal.Append_failed msg ->
      (* the op was refused before any mutation: store and log agree *)
      (Protocol.error_response ~id ("durability: " ^ msg), false)
    | Governor.Shed { retry_after_ms; reason } ->
      ( Protocol.error_response ~id
          ~extra:[ ("retry_after_ms", Json.of_int retry_after_ms) ]
          ("overloaded: " ^ reason),
        false )
    | Out_of_memory ->
      (* The run was aborted between fixpoint rounds (memory budget) or
         by a failed allocation. Nothing was cached: both caches are
         only written after a fully successful computation, so the
         failed request leaves no poisoned entry behind. *)
      Governor.note_oom t.governor;
      ( Protocol.error_response ~id
          "out of memory: request aborted (memory budget exceeded)",
        false )
    | Stack_overflow ->
      Governor.note_stack t.governor;
      ( Protocol.error_response ~id
          "stack overflow: request aborted (recursion too deep)",
        false )
    | exn ->
      (* A request must never take the server down. *)
      (Protocol.error_response ~id
         ("internal error: " ^ Printexc.to_string exn),
       false))

let handle_line t line =
  match Json.parse line with
  | request ->
    let (response, shutdown) = handle t request in
    (Json.to_string response, shutdown)
  | exception Json.Parse_error msg ->
    (Json.to_string (Protocol.error_response ~id:Json.Null msg), false)

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type pool = {
    jobs : (unit -> unit) Queue.t;
    lock : Mutex.t;
    nonempty : Condition.t;
    idle : Condition.t;
    mutable stop : bool;
    mutable active : int;
    mutable threads : Thread.t list;
  }

  let rec worker p =
    Mutex.lock p.lock;
    while Queue.is_empty p.jobs && not p.stop do
      Condition.wait p.nonempty p.lock
    done;
    if Queue.is_empty p.jobs then Mutex.unlock p.lock (* stopping *)
    else begin
      let job = Queue.pop p.jobs in
      p.active <- p.active + 1;
      Mutex.unlock p.lock;
      (try job ()
       with e ->
         Printf.eprintf "fixq: worker job raised %s\n%!" (Printexc.to_string e));
      Mutex.lock p.lock;
      p.active <- p.active - 1;
      if Queue.is_empty p.jobs && p.active = 0 then Condition.broadcast p.idle;
      Mutex.unlock p.lock;
      worker p
    end

  let create n =
    let p =
      { jobs = Queue.create (); lock = Mutex.create ();
        nonempty = Condition.create (); idle = Condition.create ();
        stop = false; active = 0; threads = [] }
    in
    p.threads <- List.init (max 1 n) (fun _ -> Thread.create worker p);
    p

  let submit p job =
    Mutex.lock p.lock;
    Queue.push job p.jobs;
    Condition.signal p.nonempty;
    Mutex.unlock p.lock

  (* Block until every submitted job has finished. *)
  let drain p =
    Mutex.lock p.lock;
    while not (Queue.is_empty p.jobs && p.active = 0) do
      Condition.wait p.idle p.lock
    done;
    Mutex.unlock p.lock

  let shutdown p =
    drain p;
    Mutex.lock p.lock;
    p.stop <- true;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.lock;
    List.iter Thread.join p.threads
end

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

let is_shutdown_line line =
  match Json.parse line with
  | j -> Json.str_opt (Json.member "op" j) = Some "shutdown"
  | exception Json.Parse_error _ -> false

(* The transports are generic over the request handler so that the
   single-process server and the cluster coordinator (whose handler
   fans out to worker processes) share the exact same pipe/socket
   plumbing. [handle] maps one request line to (response line, stop). *)

(* A stream that dies mid-frame or ships an oversized frame gets a
   well-formed error response (where the transport still accepts one)
   and otherwise ends the connection cleanly — never a bare
   [End_of_file] out of the serve loop, and never a truncated frame
   handed to the handler as if it were complete. *)
let frame_error_line kind =
  Json.to_string
    (Protocol.error_response ~id:Json.Null
       (match kind with
       | `Truncated -> "protocol error: stream ended mid-frame"
       | `Oversized ->
         Printf.sprintf "protocol error: frame larger than %d bytes"
           Frame.default_max_len))

let serve_pipe_with ~handle ?(workers = 1) ic oc =
  let out_lock = Mutex.create () in
  let write_line s =
    Mutex.lock out_lock;
    output_string oc s;
    output_char oc '\n';
    flush oc;
    Mutex.unlock out_lock
  in
  if workers <= 1 then
    let rec loop () =
      match Frame.read ic with
      | `Eof -> ()
      | `Truncated _ -> write_line (frame_error_line `Truncated)
      | `Oversized ->
        write_line (frame_error_line `Oversized);
        loop ()
      | `Line line when String.trim line = "" -> loop ()
      | `Line line ->
        let (response, shutdown) = handle line in
        write_line response;
        if not shutdown then loop ()
    in
    loop ()
  else begin
    let pool = Pool.create workers in
    let rec loop () =
      match Frame.read ic with
      | `Eof -> ()
      | `Truncated _ -> write_line (frame_error_line `Truncated)
      | `Oversized ->
        write_line (frame_error_line `Oversized);
        loop ()
      | `Line line when String.trim line = "" -> loop ()
      | `Line line ->
        if is_shutdown_line line then begin
          (* answer shutdown only after in-flight requests completed *)
          Pool.drain pool;
          let (response, _) = handle line in
          write_line response
        end
        else begin
          Pool.submit pool (fun () ->
              let (response, _) = handle line in
              write_line response);
          loop ()
        end
    in
    loop ();
    Pool.shutdown pool
  end

exception Socket_in_use of string

(* Is there a live server behind this socket path? A stale path left by
   a crashed process refuses the connection; a healthy one accepts. *)
let socket_alive path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect sock (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let serve_socket_with ~handle ?(workers = 1) ~path () =
  (* a client hanging up mid-response must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists path then begin
    (* refuse to clobber another live server's socket; only unlink a
       stale leftover that nothing answers behind *)
    if socket_alive path then raise (Socket_in_use path);
    Unix.unlink path
  end;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  let stopping = ref false in
  let pool = Pool.create workers in
  let handle_conn fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let write_line response =
      try
        output_string oc response;
        output_char oc '\n';
        flush oc
      with Sys_error _ -> ()
    in
    let rec loop () =
      match Frame.read ic with
      | exception Sys_error _ -> ()
      | `Eof -> ()
      | `Truncated _ -> write_line (frame_error_line `Truncated)
      | `Oversized ->
        write_line (frame_error_line `Oversized);
        loop ()
      | `Line line when String.trim line = "" -> loop ()
      | `Line line ->
        let (response, shutdown) = handle line in
        write_line response;
        if shutdown then begin
          stopping := true;
          (* wake the accept loop *)
          (try Unix.shutdown sock Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
          (try Unix.close sock with Unix.Unix_error _ -> ())
        end
        else loop ()
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      loop
  in
  (try
     while not !stopping do
       let (fd, _) = Unix.accept sock in
       Pool.submit pool (fun () -> handle_conn fd)
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  Pool.shutdown pool;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if Sys.file_exists path then (try Unix.unlink path with Sys_error _ -> ())

let serve_pipe t ic oc =
  serve_pipe_with ~handle:(handle_line t) ~workers:t.config.workers ic oc

let serve_socket t ~path =
  serve_socket_with ~handle:(handle_line t) ~workers:t.config.workers ~path ()
