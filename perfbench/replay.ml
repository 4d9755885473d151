(* In-process replays of the request sequence a socket run executed.

   [untraced] feeds the lines to a fresh [Server.t] through
   [Server.handle_line]: the server's own code path without the socket,
   which gives the transport share of the round trip.

   [traced] walks the same sequence through the public functions that
   [Server.handle_run] and [Server.handle_patch_doc] call, in the same
   order, with a span around each call. It keeps its own store, caches,
   IVM table and WAL, and checks its result bytes against the
   references the socket run was verified with. *)

module Xdm = Fixq_xdm
module Lang = Fixq_lang
module S = Fixq_service
module Json = S.Json
module Store = S.Store
module Prepared = S.Prepared
module Result_cache = S.Result_cache
module Lru = S.Lru
module Durability = S.Durability
module Protocol = S.Protocol
module Ivm = Fixq_ivm.Ivm
module Analyze = Fixq_analysis.Analyze
module Push = Fixq_algebra.Push
module Estimate = Fixq_cost.Estimate
module Counters = Xdm.Counters

(* serve's defaults: the replays must make the server's cache and
   budget decisions *)
let cfg = S.Server.default_config
let max_iterations = cfg.S.Server.max_iterations
let stratified = cfg.S.Server.stratified

(* ------------------------------------------------------------------ *)
(* Untraced: Server.handle_line                                        *)
(* ------------------------------------------------------------------ *)

type untraced = {
  u_ms : float array;  (** per timed request *)
  u_mismatches : int;
}

let untraced ~(w : Workload.t) ~state_dir (timed : Workload.req array) =
  let server =
    S.Server.create ~config:{ cfg with S.Server.state_dir } ()
  in
  let send line = fst (S.Server.handle_line server line) in
  List.iter
    (fun (uri, xml) -> ignore (send (Workload.load_line uri xml)))
    w.docs;
  Array.iter (fun (r : Workload.req) -> ignore (send r.line)) w.warmup;
  let mismatches = ref 0 in
  let ms =
    Array.map
      (fun (r : Workload.req) ->
        let t0 = Unix.gettimeofday () in
        let resp = send r.line in
        let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
        if not (Client.check r resp) then
          incr mismatches;
        dt)
      timed
  in
  ignore (send {|{"op":"shutdown"}|});
  { u_ms = ms; u_mismatches = !mismatches }

(* ------------------------------------------------------------------ *)
(* Traced                                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  store : Store.t;
  prepared : (string, Prepared.t) Lru.t;
  results : Result_cache.t;
  ivm : Ivm.t;
  durable : Durability.t option;
  dir : string option;
}

(* What the replay counts besides span times. *)
type tally = {
  mutable reads : int;
  mutable writes : int;
  mutable refreshes : int;
  mutable misses : int;  (** prepared-cache misses *)
  mutable result_hits : int;
  mutable result_lookups : int;
  mutable rounds : int;
  mutable round_ms : float;
  mutable nodes_fed : int;
  mutable kernels : Counters.snapshot;
  mutable serialized_bytes : int;
  mutable wal_bytes : int;
  mutable snapshots : int;
  mutable snapshot_bytes : int;
  mutable maintained : int;
  mutable dropped : int;
  mutable mismatches : int;
  mutable outside_s : float;
      (** untraced double work: the real [Prepared.prepare] on a miss *)
}

let new_tally () =
  { reads = 0; writes = 0; refreshes = 0; misses = 0; result_hits = 0;
    result_lookups = 0; rounds = 0; round_ms = 0.0; nodes_fed = 0;
    kernels = Counters.zero; serialized_bytes = 0; wal_bytes = 0;
    snapshots = 0; snapshot_bytes = 0; maintained = 0; dropped = 0;
    mismatches = 0; outside_s = 0.0 }

let mode_string = function
  | Fixq.Naive -> "naive"
  | Fixq.Delta -> "delta"
  | Fixq.Auto -> "auto"

(* The sub-phases of [Prepared.prepare], called in its order, each in
   its own span under [prepare]. Their results are discarded: the
   [Prepared.t] the replay uses comes from [Prepared.prepare] itself. *)
let prepare_phases sp ~store query =
  let span name f = Spans.with_span sp name f in
  let registry = Store.registry store in
  span "prepare" (fun () ->
      let program, spans =
        span "Parser" (fun () -> Lang.Parser.parse_program_spans query)
      in
      ignore (span "Static" (fun () -> Lang.Static.check_program program));
      let analysis =
        span "Analyze" (fun () -> Analyze.analyze ~stratified ~spans program)
      in
      let ifp_count = List.length analysis.Analyze.ifps in
      let syntactic =
        match analysis.Analyze.ifps with
        | [] -> false
        | r :: _ -> r.Analyze.syntactic
      in
      let plan =
        span "Compile" (fun () ->
            if ifp_count = 0 then None
            else Fixq.plan_of_first_ifp ~registry ~max_iterations program)
      in
      let push =
        span "Push" (fun () ->
            Option.map
              (fun (fix_id, p) -> Push.check ~stratified ~fix_id p)
              plan)
      in
      let sql =
        span "Render_sql" (fun () ->
            if ifp_count = 0 then None
            else Fixq.sql_of_first_ifp ~registry ~max_iterations program)
      in
      ignore
        (span "Estimate" (fun () ->
             Estimate.analyze ~registry ~spans
               ~compiled:(if ifp_count = 0 then None else Some (plan <> None))
               ~sql_renderable:(Option.map Result.is_ok sql)
               ~algebra_delta:
                 (Option.map (fun o -> o.Push.distributive) push = Some true)
               ~interp_delta:syntactic program)))

let run_traced sp st tl (r : Protocol.run_params) =
  let span name f = Spans.with_span sp name f in
  tl.reads <- tl.reads + 1;
  let query = r.Protocol.query in
  let generation = Store.generation st.store in
  let key = "p|" ^ query in
  let prepared, status =
    match span "Prepared.lookup" (fun () -> Lru.find st.prepared key) with
    | Some p ->
      let p' =
        span "Prepared.refresh" (fun () -> Prepared.refresh ~store:st.store p)
      in
      if p' != p then begin
        tl.refreshes <- tl.refreshes + 1;
        Lru.put st.prepared key p'
      end;
      (p', "hit")
    | None ->
      tl.misses <- tl.misses + 1;
      prepare_phases sp ~store:st.store query;
      let t0 = Unix.gettimeofday () in
      let p =
        Prepared.prepare ~store:st.store ~stratified ~max_iterations query
      in
      Lru.put st.prepared key p;
      tl.outside_s <- tl.outside_s +. (Unix.gettimeofday () -. t0);
      (p, "miss")
  in
  let engine =
    match r.Protocol.engine with
    | `Auto -> Prepared.chosen_engine prepared
    | (`Interp | `Algebra | `Sql) as e -> e
  in
  let engine_str, layer =
    match engine with
    | `Interp -> ("interp", "Eval")
    | `Algebra -> ("algebra", "Plan_eval")
    | `Sql -> ("sql", "Sqlrec")
  in
  let run_mode =
    match r.Protocol.mode with
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
  let current uri = Store.doc_generation st.store uri in
  let cached =
    if r.Protocol.cache then begin
      tl.result_lookups <- tl.result_lookups + 1;
      span "Result_cache.find" (fun () ->
          Result_cache.find st.results rkey ~current)
    end
    else None
  in
  let entry, result_status =
    match cached with
    | Some e ->
      tl.result_hits <- tl.result_hits + 1;
      (e, "hit")
    | None ->
      let fixq_engine =
        match engine with
        | `Interp -> Fixq.Interpreter run_mode
        | `Algebra -> Fixq.Algebra run_mode
        | `Sql -> Fixq.Sql run_mode
      in
      let last = ref 0.0 in
      let round_hook () =
        let now = Unix.gettimeofday () in
        tl.rounds <- tl.rounds + 1;
        tl.round_ms <- tl.round_ms +. ((now -. !last) *. 1000.0);
        last := now
      in
      let k0 = Counters.snapshot () in
      let report, footprint =
        span layer (fun () ->
            last := Unix.gettimeofday ();
            Store.track st.store (fun () ->
                Fixq.run_program ~registry:(Store.registry st.store)
                  ~max_iterations ~stratified ~round_hook ~engine:fixq_engine
                  prepared.Prepared.program))
      in
      tl.kernels <-
        Counters.add tl.kernels (Counters.diff (Counters.snapshot ()) k0);
      tl.nodes_fed <- tl.nodes_fed + report.Fixq.nodes_fed;
      let serialized =
        span "Serializer" (fun () ->
            Xdm.Serializer.seq_to_string report.Fixq.result)
      in
      tl.serialized_bytes <- tl.serialized_bytes + String.length serialized;
      let entry =
        { Result_cache.serialized; used_delta = report.Fixq.used_delta;
          nodes_fed = report.Fixq.nodes_fed; depth = report.Fixq.depth;
          wall_ms = report.Fixq.wall_ms; footprint;
          semiring = report.Fixq.semiring;
          annotations = report.Fixq.annotations }
      in
      if r.Protocol.cache && Store.generation st.store = generation then
        span "Result_cache.put" (fun () ->
            Result_cache.put st.results rkey entry;
            span "Ivm.adopt" (fun () ->
                Ivm.adopt st.ivm ~hash:rkey.Result_cache.hash
                  ~config:rkey.Result_cache.config
                  ~program:prepared.Prepared.program ~stratified
                  ~max_iterations ~result:report.Fixq.result ~footprint));
      (entry, "miss")
  in
  let response () =
    Json.to_string
      (Protocol.ok_response ~id:Json.Null
         [ ("engine", Json.Str engine_str);
           ("mode", Json.Str (mode_string run_mode));
           ("used_delta", Json.of_bool_opt entry.Result_cache.used_delta);
           ("prepared_cache", Json.Str status);
           ("result_cache", Json.Str result_status);
           ("generation", Json.of_int generation);
           ("nodes_fed", Json.of_int entry.Result_cache.nodes_fed);
           ("depth", Json.of_int entry.Result_cache.depth);
           ("result", Json.Str entry.Result_cache.serialized);
           ("wall_ms", Json.Num entry.Result_cache.wall_ms) ])
  in
  ignore (span "Json.encode" response);
  entry.Result_cache.serialized

(* The WAL payload of a patch: the server logs the request object in
   this canonical field order. *)
let op_json uri (op : Xdm.Patch.op) =
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

(* Snapshot rows: every document and every live result-cache row, as
   the server writes them (minus its IVM revival rows). *)
let snapshot_state st () =
  let reg = Store.registry st.store in
  let docs =
    Store.uris st.store
    |> List.filter_map (fun u ->
           Option.map
             (fun d -> (d.Xdm.Node.id, u, Xdm.Serializer.to_string d))
             (Xdm.Doc_registry.find ~registry:reg u))
    |> List.sort compare
    |> List.map (fun (_, u, x) ->
           Json.Obj
             [ ("t", Json.Str "doc"); ("u", Json.Str u); ("x", Json.Str x) ])
  in
  let cache =
    List.map
      (fun ((k : Result_cache.key), (e : Result_cache.entry)) ->
        Json.Obj
          [ ("t", Json.Str "cache"); ("hash", Json.Str k.Result_cache.hash);
            ("config", Json.Str k.Result_cache.config);
            ("serialized", Json.Str e.Result_cache.serialized);
            ("footprint",
             Json.List
               (List.map
                  (fun (u, g) ->
                    Json.Obj [ ("u", Json.Str u); ("g", Json.of_int g) ])
                  e.Result_cache.footprint)) ])
      (Result_cache.bindings st.results)
  in
  ([ ("generation", Json.of_int (Store.generation st.store)) ], docs @ cache)

let patch_traced sp st tl uri op =
  let span name f = Spans.with_span sp name f in
  tl.writes <- tl.writes + 1;
  let apply () =
    let delta = span "Store.patch" (fun () -> Store.patch st.store ~uri op) in
    let outcomes =
      span "Ivm.on_patch" (fun () -> Ivm.on_patch st.ivm ~uri ~op delta)
    in
    span "Result_cache.update" (fun () ->
        let current u = Store.doc_generation st.store u in
        List.iter
          (fun ((hash, config), outcome) ->
            let key = { Result_cache.hash; config } in
            match (outcome : Ivm.outcome) with
            | Ivm.Maintained { serialized; _ } -> (
              tl.maintained <- tl.maintained + 1;
              match
                List.assoc_opt key (Result_cache.bindings st.results)
              with
              | Some entry ->
                Result_cache.put st.results key
                  { entry with
                    Result_cache.serialized;
                    footprint =
                      List.map
                        (fun (u, g) -> (u, if u = uri then current u else g))
                        entry.Result_cache.footprint }
              | None -> ())
            | Ivm.Dropped _ ->
              tl.dropped <- tl.dropped + 1;
              Result_cache.remove st.results key)
          outcomes);
    delta
  in
  let delta =
    match st.durable with
    | None -> apply ()
    | Some d ->
      let before = Durability.wal_bytes d in
      let delta =
        span "Wal.append" (fun () ->
            Durability.with_op d (op_json uri op) apply)
      in
      tl.wal_bytes <- tl.wal_bytes + (Durability.wal_bytes d - before);
      if Durability.due d then begin
        (match
           span "Snapshot" (fun () ->
               Durability.snapshot d ~state:(snapshot_state st))
         with
        | Ok () -> ()
        | Error msg -> failwith ("replay snapshot: " ^ msg));
        tl.snapshots <- tl.snapshots + 1;
        let file = Filename.concat (Option.get st.dir) "snapshot" in
        tl.snapshot_bytes <- tl.snapshot_bytes + (Unix.stat file).Unix.st_size
      end;
      delta
  in
  let response () =
    Json.to_string
      (Protocol.ok_response ~id:Json.Null
         [ ("uri", Json.Str uri);
           ("path", Json.Str (Xdm.Patch.path_of_op op));
           ("generation", Json.of_int (Store.generation st.store));
           ("doc_generation", Json.of_int (Store.doc_generation st.store uri));
           ("inserted", Json.of_int delta.Xdm.Patch.inserted_count);
           ("deleted", Json.of_int (List.length delta.Xdm.Patch.deleted)) ])
  in
  ignore (span "Json.encode" response);
  Printf.sprintf "%d/%d" delta.Xdm.Patch.inserted_count
    (List.length delta.Xdm.Patch.deleted)

let handle sp st tl (r : Workload.req) =
  let req =
    Spans.with_span sp "Protocol.decode" (fun () ->
        Protocol.parse_request (Json.parse r.line))
  in
  let got =
    match req with
    | Ok (Protocol.Run p) -> run_traced sp st tl p
    | Ok (Protocol.Patch_doc { uri; op }) -> patch_traced sp st tl uri op
    | Ok _ -> failwith "replay: unexpected op"
    | Error msg -> failwith ("replay: " ^ msg)
  in
  if got <> r.expect then tl.mismatches <- tl.mismatches + 1

type traced = {
  spans : Spans.t;
  tally : tally;
  t_ms : float;  (** traced time over the timed requests *)
  gc_minor_words : float;
  gc_major : int;
}

let traced ~(w : Workload.t) ~state_dir (timed : Workload.req array) =
  let store = Store.create () in
  let durable =
    Option.map
      (fun dir ->
        Durability.start ~dir ~threshold:cfg.S.Server.snapshot_threshold
          (Durability.recover ~dir))
      state_dir
  in
  let st =
    { store; prepared = Lru.create ~capacity:cfg.S.Server.prepared_capacity ();
      results = Result_cache.create ~capacity:cfg.S.Server.result_capacity ();
      ivm = Ivm.create ~capacity:cfg.S.Server.result_capacity
          ~registry:(Store.registry store) ();
      durable; dir = state_dir }
  in
  List.iter
    (fun (uri, xml) ->
      let load () =
        Store.load_xml store ~uri xml;
        Ivm.on_unload st.ivm ~uri
      in
      match durable with
      | None -> load ()
      | Some d ->
        Durability.with_op d (Json.parse (Workload.load_line uri xml)) load)
    w.docs;
  (* warm-up runs through the same code, into a recorder and tally that
     are thrown away *)
  Array.iter (handle (Spans.create ()) st (new_tally ())) w.warmup;
  let sp = Spans.create () and tl = new_tally () in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i r ->
      Spans.set_request sp i;
      handle sp st tl r)
    timed;
  let elapsed = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  Option.iter Durability.close durable;
  { spans = sp; tally = tl;
    t_ms = (elapsed -. tl.outside_s) *. 1000.0;
    gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections }
