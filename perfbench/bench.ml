(* Serve-socket benchmark of fixq.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --fixq EXE

   Generates the workload from the seed, computes reference results
   in-process, then sets up a fresh [fixq serve --socket] several times
   (spawn, load-doc, warm-up; the median is setup_s) and drives the
   last one in a closed loop over one connection for S seconds,
   verifying every response. With --trace 1 it then replays the
   executed sequence in-process, untraced through [Server.handle_line]
   and traced through the server's layers, and reports per-layer
   metrics instead of the end-to-end ones. The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

let setups = 5

(* the write probe of the read-only workloads stops after this long *)
let probe_seconds = 3.0

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --fixq PATH";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  fixq : string;
}

let parse_args () =
  let rec go acc = function
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest -> go { acc with seed = int_of_string v } rest
    | "--seconds" :: v :: rest ->
      go { acc with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { acc with trace = v = "1" } rest
    | "--fixq" :: v :: rest -> go { acc with fixq = v } rest
    | [] -> acc
    | _ -> usage ()
  in
  let a =
    try
      go
        { workload = ""; seed = 0; seconds = 0.0; trace = false; fixq = "" }
        (List.tl (Array.to_list Sys.argv))
    with Failure _ -> usage ()
  in
  if (not (List.mem a.workload Workload.names)) || a.seconds <= 0.0
     || a.fixq = ""
  then usage ();
  a

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolated quantile, q in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per x n = if n = 0 then 0.0 else x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Socket run                                                          *)
(* ------------------------------------------------------------------ *)

type tallies = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : int;  (** ok:false responses *)
  mutable mismatches : int;
  mutable transport : int;
}

let clip s = if String.length s <= 400 then s else String.sub s 0 400 ^ "..."

(* Send one request and check its response; a dead connection counts
   as a transport failure and ends the run. *)
let exchange t conn (r : Workload.req) =
  t.attempted <- t.attempted + 1;
  let t0 = Unix.gettimeofday () in
  match Client.request conn r.Workload.line with
  | resp ->
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    if not (Client.check r resp) then begin
      t.failed <- t.failed + 1;
      if Client.starts_with ~prefix:{|{"ok":false|} resp then
        t.errors <- t.errors + 1
      else t.mismatches <- t.mismatches + 1;
      if t.failed = 1 then
        Printf.eprintf
          "first failure (request %d):\n  request  %s\n  expected %s\n  \
           response %s\n%!"
          t.attempted (clip r.Workload.line) (clip r.Workload.frag) (clip resp)
    end;
    Some ms
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
    t.failed <- t.failed + 1;
    t.transport <- t.transport + 1;
    None

type socket_run = {
  setup_s : float list;
  probe_ms : float list;
  executed : Workload.req array;  (** the timed requests, in order *)
  start : float;  (** when the timed window opened *)
  done_ : float array;  (** when each timed request completed *)
  lat_ms : float array;  (** round trip of each timed request *)
  elapsed_s : float;
  verified : int;
  counts : Client.counts;
  hwm_mb : float;
}

let socket_run a (w : Workload.t) t ~tmp =
  let setup index =
    let t0 = Unix.gettimeofday () in
    let server, conn =
      Client.spawn ~fixq:a.fixq ~tmp ~durable:w.Workload.durable ~index
    in
    List.iter
      (fun (uri, xml) ->
        t.attempted <- t.attempted + 1;
        match Client.request conn (Workload.load_line uri xml) with
        | resp ->
          if not (Client.starts_with ~prefix:{|{"ok":true|} resp) then begin
            t.failed <- t.failed + 1;
            t.errors <- t.errors + 1
          end
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
          t.failed <- t.failed + 1;
          t.transport <- t.transport + 1)
      w.Workload.docs;
    Array.iter (fun r -> ignore (exchange t conn r)) w.warmup;
    (server, conn, Unix.gettimeofday () -. t0)
  in
  let setup_s = ref [] in
  let rec setups_from i =
    let server, conn, s = setup i in
    setup_s := s :: !setup_s;
    if i < setups then begin
      Client.close conn;
      Client.shutdown server;
      setups_from (i + 1)
    end
    else (server, conn)
  in
  let server, conn = setups_from 1 in
  let before = Client.stats conn in
  let timed = w.Workload.timed in
  let n = Array.length timed in
  (* sized for the longest plausible run; grown if ever exceeded *)
  let lat = ref (Array.make 65536 0.0) and done_ = ref (Array.make 65536 0.0) in
  let count = ref 0 and verified = ref 0 in
  let t0 = Unix.gettimeofday () in
  let stop = t0 +. a.seconds in
  let alive = ref true in
  while !alive && Unix.gettimeofday () < stop do
    let i = !count in
    if i = Array.length !lat then begin
      lat := Array.append !lat (Array.make i 0.0);
      done_ := Array.append !done_ (Array.make i 0.0)
    end;
    let failed = t.failed in
    (match exchange t conn timed.(i mod n) with
    | Some ms ->
      !lat.(i) <- ms;
      if t.failed = failed then incr verified
    | None -> alive := false);
    !done_.(i) <- Unix.gettimeofday ();
    incr count
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let after = if !alive then Client.stats conn else before in
  let hwm = Client.vm_hwm_mb server in
  let probe_ms = ref [] in
  let probe_stop = Unix.gettimeofday () +. probe_seconds in
  Array.iter
    (fun r ->
      if !alive && Unix.gettimeofday () < probe_stop then
        match exchange t conn r with
        | Some ms -> probe_ms := ms :: !probe_ms
        | None -> alive := false)
    w.Workload.probe;
  Client.close conn;
  Client.shutdown server;
  let executed = Array.init !count (fun i -> timed.(i mod n)) in
  { setup_s = !setup_s; probe_ms = !probe_ms; executed;
    start = t0; done_ = Array.sub !done_ 0 !count;
    lat_ms = Array.sub !lat 0 !count;
    elapsed_s = elapsed; verified = !verified;
    counts = Client.diff after before; hwm_mb = hwm }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let timed_writes (s : socket_run) =
  Array.fold_left
    (fun acc r -> if r.Workload.write then acc + 1 else acc)
    0 s.executed

(* Writes are the patch-doc requests of the timed window where the
   workload edits, and of the write probe after it where it does not. *)
let latencies (s : socket_run) =
  let lat write =
    List.filter_map
      (fun i ->
        if s.executed.(i).Workload.write = write then Some s.lat_ms.(i)
        else None)
      (List.init (Array.length s.executed) Fun.id)
  in
  (lat false, match lat true with [] -> s.probe_ms | l -> l)

(* Only the figures that held still between runs on a shared 2-vCPU
   host are gated. Quantiles past the median spread by 0.2-0.4 there:
   on table2-recompute p95 falls on the border between two query
   classes, p99 lies in the sparse top where host stalls and the
   server's major-GC slices land, and the sub-0.1 ms probe writes swing
   with every scheduling hiccup. They are reported with the per-layer
   metrics, which carry no bound. *)
let end_to_end (s : socket_run) =
  let reads, _ = latencies s in
  [ ("throughput_rps", float_of_int s.verified /. s.elapsed_s, "1/s");
    ("read_p50_ms", median reads, "ms");
    ("setup_s", median s.setup_s, "s");
    ("server_rss_mb", s.hwm_mb, "MB") ]

let latency_tails (s : socket_run) =
  let reads, writes = latencies s in
  [ ("read_p95_ms", quantile 0.95 reads, "ms");
    ("read_p99_ms", quantile 0.99 reads, "ms");
    ("write_p50_ms", median writes, "ms");
    ("write_p95_ms", quantile 0.95 writes, "ms");
    ("write_p99_ms", quantile 0.99 writes, "ms") ]

(* The replays take about as long as the socket run each; they cover
   the requests of its first [replay_seconds] so that a traced run stays
   within its time limit at any --seconds. *)
let replay_seconds = 3.0

let replay_prefix (s : socket_run) =
  let n = Array.length s.executed in
  let rec go i =
    if i < n && s.done_.(i) -. s.start <= replay_seconds then go (i + 1)
    else i
  in
  if n = 0 then 0 else max 1 (go 0)

let per_layer (s : socket_run) (u : Replay.untraced) (tr : Replay.traced) =
  let tl = tr.Replay.tally in
  let self = Spans.self_times tr.Replay.spans in
  let self_ms name =
    match Hashtbl.find_opt self name with
    | Some sum -> sum *. 1000.0
    | None -> 0.0
  in
  let reads = tl.Replay.reads and writes = tl.Replay.writes in
  let requests = reads + writes in
  let per_read name = per (self_ms name) reads in
  let per_write name = per (self_ms name) writes in
  let k = tl.Replay.kernels in
  let c = s.counts in
  let prepared_lookups = c.Client.prepared_hits + c.Client.prepared_misses in
  let result_lookups = c.Client.result_hits + c.Client.result_misses in
  let ivm_outcomes = c.Client.ivm_maintained + c.Client.ivm_fallback in
  let socket_writes = timed_writes s in
  let untraced_ms = Array.fold_left ( +. ) 0.0 u.Replay.u_ms in
  [ ("Parser.ms", per_read "Parser", "ms");
    ("Static.ms", per_read "Static", "ms");
    ("Analyze.ms", per_read "Analyze", "ms");
    ("Compile.ms", per_read "Compile", "ms");
    ("Push.ms", per_read "Push", "ms");
    ("Render_sql.ms", per_read "Render_sql", "ms");
    ("Estimate.ms", per_read "Estimate", "ms");
    ("Prepared.miss_ratio", ratio c.Client.prepared_misses prepared_lookups,
     "ratio");
    ("Prepared.lookups", float_of_int prepared_lookups, "count");
    ("Prepared.refresh_ms", per_read "Prepared.refresh", "ms");
    ("Prepared.refreshes", per (float_of_int tl.Replay.refreshes) reads,
     "1/read");
    ("Result_cache.hit_ratio", ratio c.Client.result_hits result_lookups,
     "ratio");
    ("Result_cache.lookups", float_of_int result_lookups, "count");
    ("Result_cache.find_ms", per_read "Result_cache.find", "ms");
    ("Eval.ms", per_read "Eval", "ms");
    ("Plan_eval.ms", per_read "Plan_eval", "ms");
    ("Fixpoint.rounds", per (float_of_int tl.Replay.rounds) reads, "1/read");
    ("Fixpoint.round_ms", per tl.Replay.round_ms tl.Replay.rounds, "ms");
    ("Fixpoint.nodes_fed", per (float_of_int tl.Replay.nodes_fed) reads,
     "1/read");
    ("Counters.merges", per (float_of_int k.Fixq_xdm.Counters.merges) reads,
     "1/read");
    ("Counters.fallback_sorts",
     per (float_of_int k.Fixq_xdm.Counters.fallback_sorts) reads, "1/read");
    ("Counters.bitmap_hit_ratio",
     ratio k.Fixq_xdm.Counters.bitmap_hits k.Fixq_xdm.Counters.bitmap_tests,
     "ratio");
    ("Counters.bitmap_tests",
     per (float_of_int k.Fixq_xdm.Counters.bitmap_tests) reads, "1/read");
    ("Counters.index_steps",
     per (float_of_int k.Fixq_xdm.Counters.index_steps) reads, "1/read");
    ("Counters.col_rows", per (float_of_int k.Fixq_xdm.Counters.col_rows) reads,
     "1/read");
    ("Counters.col_boxed_rows",
     per (float_of_int k.Fixq_xdm.Counters.col_boxed_rows) reads, "1/read");
    ("Gc.minor_mwords", per (tr.Replay.gc_minor_words /. 1e6) requests,
     "Mwords/req");
    ("Gc.major_collections", per (float_of_int tr.Replay.gc_major) requests,
     "1/req");
    ("Serializer.ms", per_read "Serializer", "ms");
    ("Serializer.kb",
     per (float_of_int tl.Replay.serialized_bytes /. 1024.0) reads, "KB/read");
    ("Json.encode_ms", per (self_ms "Json.encode") requests, "ms");
    ("Protocol.decode_ms", per (self_ms "Protocol.decode") requests, "ms");
    ("Server.transport_ms",
     median (Array.to_list (Array.sub s.lat_ms 0 (Array.length u.Replay.u_ms)))
     -. median (Array.to_list u.Replay.u_ms),
     "ms");
    ("Store.patch_ms", per_write "Store.patch", "ms");
    ("Ivm.on_patch_ms", per_write "Ivm.on_patch", "ms");
    ("Ivm.maintained_ratio", ratio c.Client.ivm_maintained ivm_outcomes,
     "ratio");
    ("Ivm.outcomes", float_of_int ivm_outcomes, "count");
    ("Ivm.delta_nodes",
     per (float_of_int c.Client.ivm_delta_nodes) socket_writes,
     "1/write");
    ("Wal.append_ms", per_write "Wal.append", "ms");
    ("Wal.bytes", per (float_of_int tl.Replay.wal_bytes) writes, "B/write");
    ("Snapshot.ms", per (self_ms "Snapshot") tl.Replay.snapshots, "ms");
    ("Snapshot.kb",
     per (float_of_int tl.Replay.snapshot_bytes /. 1024.0) tl.Replay.snapshots,
     "KB");
    ("Snapshot.count", float_of_int tl.Replay.snapshots, "count");
    ("Trace.overhead_ratio",
     (if untraced_ms > 0.0 then tr.Replay.t_ms /. untraced_ms else 0.0),
     "ratio");
    ("Trace.spans", per (float_of_int tr.Replay.spans.Spans.n) requests,
     "1/req") ]
  @ latency_tails s

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let print_metrics title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-26s %14.4f %s\n" name v unit)
    rows

let json_metrics rows =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
             (if Float.is_finite v then v else 0.0) unit)
         rows)
  ^ "}"

let main () =
  let a = parse_args () in
  let tmp =
    Filename.concat ".perfbench_tmp"
      (Printf.sprintf "%s-%d" a.workload (Unix.getpid ()))
  in
  let cleanup () =
    Client.kill_all ();
    (try Client.rm_rf tmp with _ -> ());
    try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ()
  in
  (* a wedged server must not hold the run past its time limit *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perfbench: watchdog expired";
         cleanup ();
         exit 3));
  ignore (Unix.alarm 170);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.mkdir ".perfbench_tmp" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir tmp 0o755;
  Fun.protect ~finally:cleanup (fun () ->
      let t0 = Unix.gettimeofday () in
      let w = Workload.make a.workload ~seed:a.seed in
      Printf.printf "workload %s seed %d: %d docs, %d warm-up, %d-request \
                     cycle; references in %.2f s\n"
        w.Workload.name a.seed (List.length w.Workload.docs)
        (Array.length w.Workload.warmup) (Array.length w.Workload.timed)
        (Unix.gettimeofday () -. t0);
      List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v)
        w.Workload.params;
      let t =
        { attempted = 0; failed = 0; errors = 0; mismatches = 0;
          transport = 0 }
      in
      let s = socket_run a w t ~tmp in
      let writes = timed_writes s in
      let c = s.counts in
      Printf.printf
        "socket run: %d timed requests in %.2f s (%d reads, %d writes); \
         failed %d of %d attempted (%d errors, %d mismatches, %d \
         transport)\n"
        (Array.length s.executed) s.elapsed_s
        (Array.length s.executed - writes)
        writes t.failed t.attempted t.errors t.mismatches t.transport;
      Printf.printf
        "stats diff: prepared %d hits / %d misses, results %d hits / %d \
         misses, ivm %d maintained / %d fallback / %d delta nodes, wal %d \
         appends, %d snapshots\n"
        c.Client.prepared_hits c.Client.prepared_misses c.Client.result_hits
        c.Client.result_misses c.Client.ivm_maintained c.Client.ivm_fallback
        c.Client.ivm_delta_nodes c.Client.wal_appends c.Client.snapshots;
      let e2e = end_to_end s in
      (* failed_ratio is 0 on a correct build, so it has no relative
         spread to bound: printed here, carried in the JSON line as
         failed/attempted *)
      print_metrics "end-to-end:"
        (e2e @ latency_tails s
        @ [ ("failed_ratio", ratio t.failed t.attempted, "ratio") ]);
      let correct = ref (t.failed = 0) in
      let rows =
        if not a.trace then e2e
        else begin
          let state name =
            if w.Workload.durable then Some (Filename.concat tmp name) else None
          in
          let replayed = Array.sub s.executed 0 (replay_prefix s) in
          Printf.printf "replaying the first %d timed requests\n"
            (Array.length replayed);
          let u = Replay.untraced ~w ~state_dir:(state "untraced") replayed in
          let tr = Replay.traced ~w ~state_dir:(state "traced") replayed in
          let tl = tr.Replay.tally in
          Printf.printf
            "replays: handle_line %d mismatches; traced %d mismatches against \
             the socket run's verified bytes; traced prepared miss ratio \
             %.4f, result hit ratio %.4f, IVM maintained ratio %.4f (the \
             whole window's stats: %.4f, %.4f, %.4f)\n"
            u.Replay.u_mismatches tl.Replay.mismatches
            (ratio tl.Replay.misses tl.Replay.reads)
            (ratio tl.Replay.result_hits tl.Replay.result_lookups)
            (ratio tl.Replay.maintained
               (tl.Replay.maintained + tl.Replay.dropped))
            (ratio c.Client.prepared_misses
               (c.Client.prepared_hits + c.Client.prepared_misses))
            (ratio c.Client.result_hits
               (c.Client.result_hits + c.Client.result_misses))
            (ratio c.Client.ivm_maintained
               (c.Client.ivm_maintained + c.Client.ivm_fallback));
          if u.Replay.u_mismatches > 0 || tl.Replay.mismatches > 0 then
            correct := false;
          (try Unix.mkdir ".perfbench_out" 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          Spans.write tr.Replay.spans
            (Printf.sprintf ".perfbench_out/trace-%s.jsonl" a.workload);
          let layers = per_layer s u tr in
          print_metrics "per-layer (traced replay):" layers;
          layers
        end
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
                     \"metrics\": %s}\n%!"
        !correct t.attempted t.failed (json_metrics rows))

let () =
  match main () with
  | () -> ()
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
