(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus the analytical artifacts (Table 1,
   Figure 9, Example 2.4, Section 4.1).

   Usage:
     dune exec bench/main.exe                    # everything (quick sizes)
     dune exec bench/main.exe -- table2 --paper  # paper-like sizes (slow)
     dune exec bench/main.exe -- table1|figure9|example24|section41|micro

   Absolute milliseconds are not comparable with the paper's 2007
   testbed; the reproduced *shape* is: Delta beats Naïve on both
   engines, the nodes-fed-back reduction factors, and the recursion
   depths. See EXPERIMENTS.md. *)

module Node = Fixq_xdm.Node
module Item = Fixq_xdm.Item
module Doc_registry = Fixq_xdm.Doc_registry
module Parser = Fixq_lang.Parser
module Stats = Fixq_lang.Stats
module Render = Fixq_algebra.Render
module Push = Fixq_algebra.Push
module Plan_eval = Fixq_algebra.Plan_eval
module W = Fixq_workloads

module Json = Fixq_service.Json

let printf = Printf.printf

(* --json OUT: machine-readable record of every measurement made during
   the run, for tracking the perf trajectory across PRs. *)
let json_rows : Json.t list ref = ref []

let record_json fields = json_rows := Json.Obj fields :: !json_rows

let write_json path =
  let oc = open_out path in
  output_string oc (Json.to_string (Json.List (List.rev !json_rows)));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Row configuration                                                   *)
(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  query : string;
  setup : Doc_registry.t -> unit;
  paper : string;
      (** the paper's numbers for this row, quoted in the output *)
}

let bidder name scale paper =
  { name;
    query = W.Queries.bidder_network;
    setup =
      (fun registry ->
        ignore (W.Xmark.load ~registry { W.Xmark.default with W.Xmark.scale }));
    paper }

let curriculum name courses paper =
  { name;
    query = W.Queries.curriculum_check;
    setup =
      (fun registry ->
        ignore
          (W.Curriculum.load ~registry
             { W.Curriculum.default with W.Curriculum.courses }));
    paper }

let hospital name total paper =
  { name;
    query = W.Queries.hospital;
    setup =
      (fun registry ->
        ignore
          (W.Hospital.load ~registry
             { W.Hospital.default with W.Hospital.total }));
    paper }

let romeo =
  { name = "Romeo and Juliet";
    query = W.Queries.dialogs;
    setup =
      (fun registry -> ignore (W.Shakespeare.load ~registry W.Shakespeare.default));
    paper = "6795/1260 | 1150/818 | 37841/5638 | 33" }

let quick_rows =
  [ bidder "Bidder network (small)" 0.002
      "362/165 | 2307/1872 | 40254/9319 | 10";
    bidder "Bidder network (medium)" 0.004
      "5010/1995 | 15027/7284 | 683225/122532 | 16";
    bidder "Bidder network (large)" 0.008
      "40785/13805 | 123316/52436 | 5694390/961356 | 15";
    romeo;
    curriculum "Curriculum (medium)" 400 "183/135 | 1308/1040 | 12301/3044 | 18";
    curriculum "Curriculum (large)" 1600 "1466/646 | 3485/2176 | 127992/19780 | 35";
    hospital "Hospital (medium)" 20_000 "734/497 | 1301/1290 | 99381/50000 | 5" ]

let paper_rows =
  [ bidder "Bidder network (small)" 0.01
      "362/165 | 2307/1872 | 40254/9319 | 10";
    bidder "Bidder network (medium)" 0.02
      "5010/1995 | 15027/7284 | 683225/122532 | 16";
    romeo;
    curriculum "Curriculum (medium)" 800 "183/135 | 1308/1040 | 12301/3044 | 18";
    curriculum "Curriculum (large)" 4000 "1466/646 | 3485/2176 | 127992/19780 | 35";
    hospital "Hospital (medium)" 50_000 "734/497 | 1301/1290 | 99381/50000 | 5" ]

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

type measurement = {
  alg_naive_ms : float;
  alg_delta_ms : float;
  int_naive_ms : float;
  int_delta_ms : float;
  fed_naive : int;
  fed_delta : int;
  depth : int;
  agree : bool;
}

let measure_row row =
  (* One registry per row: all four configurations query the same
     document instance, so results are comparable by node identity and
     the per-tree encoding caches are shared. *)
  let registry = Doc_registry.create () in
  row.setup registry;
  let module Counters = Fixq_xdm.Counters in
  let run engine =
    let before = Counters.snapshot () in
    let r = Fixq.run ~registry ~engine row.query in
    (r, Counters.diff (Counters.snapshot ()) before)
  in
  let (an, kan) = run (Fixq.Algebra Fixq.Naive) in
  let (ad, kad) = run (Fixq.Algebra Fixq.Auto) in
  let (inn, kin) = run (Fixq.Interpreter Fixq.Naive) in
  let (ind, kid) = run (Fixq.Interpreter Fixq.Auto) in
  List.iter
    (fun (engine, r, k) ->
      record_json
        [ ("section", Json.Str "table2"); ("query", Json.Str row.name);
          ("engine", Json.Str engine); ("ms", Json.Num r.Fixq.wall_ms);
          ("iterations", Json.of_int r.Fixq.depth);
          ("nodes_fed", Json.of_int r.Fixq.nodes_fed);
          ("kernel_merges", Json.of_int k.Counters.merges);
          ("kernel_merged_items", Json.of_int k.Counters.merged_items);
          ("kernel_fallback_sorts", Json.of_int k.Counters.fallback_sorts);
          ("kernel_bitmap_tests", Json.of_int k.Counters.bitmap_tests);
          ("kernel_bitmap_hits", Json.of_int k.Counters.bitmap_hits);
          ("kernel_index_steps", Json.of_int k.Counters.index_steps);
          ("kernel_index_nodes", Json.of_int k.Counters.index_nodes);
          ("kernel_col_batches", Json.of_int k.Counters.col_batches);
          ("kernel_col_rows", Json.of_int k.Counters.col_rows);
          ("kernel_col_boxed_rows", Json.of_int k.Counters.col_boxed_rows);
          ("kernel_value_index_builds",
           Json.of_int k.Counters.value_index_builds);
          ("kernel_value_index_probes",
           Json.of_int k.Counters.value_index_probes) ])
    [ ("algebra-naive", an, kan); ("algebra-delta", ad, kad);
      ("interp-naive", inn, kin); ("interp-delta", ind, kid) ];
  { alg_naive_ms = an.Fixq.wall_ms;
    alg_delta_ms = ad.Fixq.wall_ms;
    int_naive_ms = inn.Fixq.wall_ms;
    int_delta_ms = ind.Fixq.wall_ms;
    fed_naive = inn.Fixq.nodes_fed;
    fed_delta = ind.Fixq.nodes_fed;
    depth = ind.Fixq.depth;
    agree =
      (* constructed results carry fresh node identities per run, so
         fall back to structural comparison *)
      (let same a b =
         Item.set_equal a.Fixq.result b.Fixq.result
         || Item.deep_equal a.Fixq.result b.Fixq.result
       in
       same an ad && same inn ind && same an inn) }

let ratio a b = if b > 0.0 then a /. b else Float.nan

let table2 rows =
  printf "== Table 2: Naïve vs Delta (times, nodes fed back, depth) ==\n";
  printf "   Algebra = relational µ/µ∆ (MonetDB/XQuery stand-in)\n";
  printf "   Interp  = tree-walking processor (Saxon stand-in)\n";
  printf "   paper rows quote: MonetDB n/d ms | Saxon n/d ms | fed n/d | depth\n\n";
  printf "%-26s | %21s | %21s | %19s | %5s | %s\n" "Query"
    "Algebra naïve/delta" "Interp naïve/delta" "Nodes fed n/d" "Depth" "ok";
  printf "%s\n" (String.make 118 '-');
  List.iter
    (fun row ->
      let m = measure_row row in
      printf
        "%-26s | %8.0f / %7.0f ms | %8.0f / %7.0f ms | %9d / %7d | %5d | %s\n%!"
        row.name m.alg_naive_ms m.alg_delta_ms m.int_naive_ms m.int_delta_ms
        m.fed_naive m.fed_delta m.depth
        (if m.agree then "yes" else "DISAGREE");
      printf
        "%-26s |   speedup ×%-9.2f |   speedup ×%-9.2f | reduction ×%-6.2f |\n"
        ""
        (ratio m.alg_naive_ms m.alg_delta_ms)
        (ratio m.int_naive_ms m.int_delta_ms)
        (ratio (float_of_int m.fed_naive) (float_of_int m.fed_delta));
      printf "%-26s |   paper: %s\n" "" row.paper)
    rows;
  printf "\n"

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let module Plan = Fixq_algebra.Plan in
  let module Axis = Fixq_xdm.Axis in
  printf "== Table 1: algebra dialect and the Push? column ==\n\n";
  let dummy = Plan.Lit_table ([ "iter"; "item" ], []) in
  let fs = { Plan.fun_result = "v"; fun_args = [] } in
  let agg = { Plan.agg_result = "n"; agg_input = None; agg_partition = None } in
  let num = { Plan.num_result = "r"; num_order = []; num_partition = None } in
  let fix = { Plan.fix_id = 0; seed = dummy; body = dummy } in
  let ops =
    [ ("π (project, rename)", Plan.Project ([], dummy));
      ("σ (select)", Plan.Select ("item", dummy));
      ("⋈ (join)", Plan.Join ({ Plan.equi = []; theta = [] }, dummy, dummy));
      ("× (cartesian product)", Plan.Cross (dummy, dummy));
      ("δ (duplicate elimination)", Plan.Distinct dummy);
      ("∪ (union)", Plan.Union (dummy, dummy));
      ("\\ (difference)", Plan.Difference (dummy, dummy));
      ("count (aggregate)", Plan.Aggr (Plan.A_count, agg, dummy));
      ("⊚ (arith/comparison)", Plan.Fun (Plan.P_not, fs, dummy));
      ("# (row tagging)", Plan.Tag ("t", dummy));
      ("rho (row numbering)", Plan.Row_num (num, dummy));
      ("step join", Plan.Step (Axis.Child, Axis.Kind_node, "item", dummy));
      ("epsilon (node constructor)", Plan.Construct ("element", dummy));
      ("mu / mu-delta (fixpoints)", Plan.Mu fix) ]
  in
  printf "%-30s | Push?\n%s\n" "Operator" (String.make 40 '-');
  List.iter
    (fun (name, op) ->
      printf "%-30s | %s\n" name (if Plan.push_through op then "yes" else "no"))
    ops;
  printf "\n"

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

let load_small_curriculum registry =
  ignore
    (W.Curriculum.load ~registry
       { W.Curriculum.default with W.Curriculum.courses = 12 })

let show_plan title query =
  let registry = Doc_registry.create () in
  load_small_curriculum registry;
  printf "-- %s --\n" title;
  match Fixq.plan_of_first_ifp ~registry (Parser.parse_program query) with
  | None -> printf "   (body not compilable)\n\n"
  | Some (fix_id, plan) ->
    print_string (Render.to_ascii plan);
    let o = Push.check ~fix_id plan in
    printf "%s\n\n" (Format.asprintf "   %a" Push.pp_outcome o)

let figure9 () =
  printf "== Figure 9: recursion-body plans and the ∪ push-up ==\n\n";
  show_plan "e_rec of Q1: $x/id(./prerequisites/pre_code)" W.Queries.q1;
  show_plan "e_rec of Q2: if (count($x/self::a)) then $x/* else ()"
    W.Queries.q2

(* ------------------------------------------------------------------ *)
(* Example 2.4                                                         *)
(* ------------------------------------------------------------------ *)

let example24 () =
  printf "== Example 2.4: Naïve vs Delta iteration table ==\n\n";
  let module Eval = Fixq_lang.Eval in
  let module Fixpoint = Fixq_lang.Fixpoint in
  let ev = Eval.create () in
  let seed =
    Eval.eval_expr ev (Parser.parse_expr {|(<a/>,<b><c><d/></c></b>)|})
  in
  let body_expr =
    Parser.parse_expr {|if (count($x/self::a)) then $x/* else ()|}
  in
  let body input = Eval.eval_expr ev ~vars:[ ("x", input) ] body_expr in
  let label items =
    String.concat ","
      (List.filter_map
         (function Item.N n -> Some (Node.name n) | Item.A _ -> None)
         items)
  in
  let show name algo =
    let stats = Stats.create () in
    let result = algo ~stats in
    printf "%s: result (%s)\n" name (label result);
    List.iteri
      (fun i it ->
        printf "  iteration %d: fed %d, produced %d, result size %d\n" i
          it.Stats.fed it.Stats.produced it.Stats.result_size)
      (Stats.last_run stats)
  in
  printf "(iteration 0 starts from the seed itself, as in the paper's table)\n";
  show "Naïve" (fun ~stats ->
      Fixpoint.naive ~include_seed:true ~stats ~body ~seed ());
  show "Delta" (fun ~stats ->
      Fixpoint.delta ~include_seed:true ~stats ~body ~seed ());
  printf
    "\nNaïve finds d (a stays in the fed-back input, so $x/* keeps digging);\n\
     Delta misses d: the body is not distributive (count($x/…)).\n\n"

(* ------------------------------------------------------------------ *)
(* Section 4.1                                                         *)
(* ------------------------------------------------------------------ *)

let section41 () =
  printf "== Section 4.1: syntactic vs algebraic distributivity ==\n\n";
  let registry = Doc_registry.create () in
  load_small_curriculum registry;
  let verdicts name src =
    match
      Fixq.distributivity_verdicts ~registry (Parser.parse_program src)
    with
    | Some (syn, alg) ->
      printf "%-28s syntactic: %-5s algebraic: %s\n" name
        (if syn then "yes" else "no")
        (match alg with
        | Some true -> "yes"
        | Some false -> "no"
        | None -> "n/a")
    | None -> printf "%-28s (no IFP)\n" name
  in
  verdicts "Q1" W.Queries.q1;
  verdicts "Q1 variant (id($x/...))" W.Queries.q1_variant;
  verdicts "Q1 unfolded (where ... = )" W.Queries.q1_unfolded;
  verdicts "Q2" W.Queries.q2;
  printf "\nBehaviour on the unfolded variant:\n";
  let ri =
    Fixq.run ~registry ~engine:(Fixq.Interpreter Fixq.Auto) W.Queries.q1_unfolded
  in
  let ra =
    Fixq.run ~registry ~engine:(Fixq.Algebra Fixq.Auto) W.Queries.q1_unfolded
  in
  printf "  interpreter (syntactic check): delta=%b, %d nodes fed\n"
    (ri.Fixq.used_delta = Some true)
    ri.Fixq.nodes_fed;
  printf "  algebra     (∪ push-up)      : delta=%b, %d nodes fed\n"
    (ra.Fixq.used_delta = Some true)
    ra.Fixq.nodes_fed;
  printf "  results agree: %b\n\n"
    (Item.set_equal ri.Fixq.result ra.Fixq.result)

(* ------------------------------------------------------------------ *)
(* Section 6 ablation: the stratified-difference refinement            *)
(* ------------------------------------------------------------------ *)

let section6 () =
  printf "== Section 6 ablation: stratified difference (x except R) ==\n\n";
  let registry = Doc_registry.create () in
  ignore
    (W.Curriculum.load ~registry
       { W.Curriculum.default with W.Curriculum.courses = 1200 });
  (* transitive prerequisites that are NOT already-passed courses *)
  let q =
    {|let $taken := doc("curriculum.xml")/curriculum/course[@code = "c2"]
      return
        for $c in doc("curriculum.xml")/curriculum/course
        where exists($c intersect
                     (with $x seeded by $c
                      recurse ($x/id(./prerequisites/pre_code) except $taken)))
        return $c|}
  in
  let run ~stratified =
    Fixq.run ~registry ~stratified ~engine:(Fixq.Interpreter Fixq.Auto) q
  in
  let plain = run ~stratified:false in
  let strat = run ~stratified:true in
  printf "  Figure 5 rules only : delta=%b  %7.1f ms  %7d nodes fed\n"
    (plain.Fixq.used_delta = Some true)
    plain.Fixq.wall_ms plain.Fixq.nodes_fed;
  printf "  + stratified rule   : delta=%b  %7.1f ms  %7d nodes fed\n"
    (strat.Fixq.used_delta = Some true)
    strat.Fixq.wall_ms strat.Fixq.nodes_fed;
  printf "  results agree: %b\n\n"
    (Item.set_equal plain.Fixq.result strat.Fixq.result)

(* ------------------------------------------------------------------ *)
(* Section 7 ablation: divide-and-conquer (parallel Delta)             *)
(* ------------------------------------------------------------------ *)

let section7 () =
  printf
    "== Section 7 ablation: parallel Delta (divide-and-conquer over ∆) ==\n\n";
  let module Eval = Fixq_lang.Eval in
  let module Fixpoint = Fixq_lang.Fixpoint in
  let registry = Doc_registry.create () in
  ignore (W.Xmark.load ~registry { W.Xmark.default with W.Xmark.scale = 0.02 });
  (* the bidder-network payload: expensive per node (auction scans),
     read-only — exactly the shape divide-and-conquer pays off for *)
  let prolog =
    Parser.parse_program
      {|declare variable $doc := doc("auction.xml");
        declare function bidder ($in as node()*) as node()*
        { for $id in $in/@id
          let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
          return $doc//people/person[@id = $b/@person]
        };
        0|}
  in
  let make_ev () =
    let ev = Eval.create ~registry () in
    Eval.load_prolog ev prolog;
    ev
  in
  let body_expr = Parser.parse_expr "bidder($x)" in
  let body_on ev input = Eval.eval_expr ev ~vars:[ ("x", input) ] body_expr in
  let ev = make_ev () in
  let seed =
    Eval.eval_expr ev
      (Parser.parse_expr {|(doc("auction.xml")//people/person)[position() <= 100]|})
  in
  (* The divide-and-conquer body: each round's ∆ is split into [domains]
     chunks evaluated on OCaml domains, and the parts are united by the
     kernel's absorb. Every domain has its own evaluator (value-index
     tables are per evaluator); the first round stays sequential so
     lazily built document indexes exist before concurrent reads, and
     rounds under 8 items stay sequential. Sound for distributive,
     constructor-free bodies — the ones Delta runs. *)
  let chunked domains =
    let evs = Array.init domains (fun _ -> make_ev ()) in
    let warm = ref false in
    fun input ->
      let n = List.length input in
      if (not !warm) || n < 8 then begin
        warm := true;
        body_on evs.(0) input
      end
      else
        let size = (n + domains - 1) / domains in
        let rec chunks = function
          | [] -> []
          | l ->
            List.filteri (fun i _ -> i < size) l
            :: chunks (List.filteri (fun i _ -> i >= size) l)
        in
        match chunks input with
        | [] -> []
        | first :: rest ->
          let handles =
            List.mapi
              (fun i c -> Domain.spawn (fun () -> body_on evs.(i + 1) c))
              rest
          in
          let head = body_on evs.(0) first in
          List.concat (head :: List.map Domain.join handles)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let stats = Stats.create () in
  let (seq, seq_ms) =
    time (fun () -> Fixpoint.delta ~stats ~body:(body_on ev) ~seed ())
  in
  printf "  sequential Delta       : %8.1f ms (%d nodes)\n" seq_ms
    (List.length seq);
  List.iter
    (fun domains ->
      let body = chunked domains in
      let (par, par_ms) =
        time (fun () -> Fixpoint.delta ~stats ~body ~seed ())
      in
      printf "  parallel Delta (%d dom) : %8.1f ms  ×%.2f  agree=%b\n"
        domains par_ms (seq_ms /. par_ms)
        (Item.set_equal seq par))
    [ 2; 4 ];
  printf
    "\n  Note: a negative result on this engine. The split is sound\n\
    \  (distributivity is exactly the licence to divide ∆), but the\n\
    \  interpreter's list-allocating payloads are GC-bound: OCaml\n\
    \  domains synchronize on minor collections, so added domains buy\n\
    \  sync overhead, not throughput. A compute-bound or off-heap\n\
    \  payload (the paper imagines distributed back-ends) is where the\n\
    \  divide-and-conquer reading pays.\n\n"

(* ------------------------------------------------------------------ *)
(* Cluster scaling                                                     *)
(* ------------------------------------------------------------------ *)

(* The multi-process counterpart of section7: scatter-gather an XMark
   descendant closure across 1, 2, 4 worker processes (replication =
   worker count, so every worker serves a seed slice). Process
   isolation sidesteps the shared-heap GC wall that sinks the
   domains-based split — each worker collects privately. *)
let cluster_bench () =
  printf "== Cluster scaling: scatter-gather across worker processes ==\n\n";
  let module Cluster = Fixq_cluster.Cluster in
  let module Coordinator = Fixq_cluster.Coordinator in
  let bin =
    let next_to_me =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/fixq_cli.exe"
    in
    if Sys.file_exists next_to_me then Some next_to_me else None
  in
  match bin with
  | None ->
    printf "  (skipped: bin/fixq_cli.exe not built next to bench/main.exe)\n\n"
  | Some bin ->
    let load =
      {|{"op":"load-doc","uri":"x.xml","generate":"xmark","size":0.05,"seed":42}|}
    in
    let run_line =
      {|{"op":"run","query":"with $x seeded by doc(\"x.xml\")//person recurse $x/*","cache":false}|}
    in
    List.iter
      (fun workers ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "fixq-bench-%d-%dw" (Unix.getpid ()) workers)
        in
        let command ~name:_ ~socket =
          [| bin; "serve"; "--socket"; socket; "--workers"; "4" |]
        in
        let config =
          { Coordinator.default_config with replication = workers }
        in
        match Cluster.launch ~dir ~count:workers ~command ~config () with
        | exception Failure msg ->
          printf "  %d workers: launch failed (%s)\n" workers msg
        | cluster ->
          let handle = Cluster.handle_line cluster in
          ignore (handle load);
          ignore (handle run_line) (* warm the prepared caches *);
          let best = ref infinity in
          let result_chars = ref 0 in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            let (resp, _) = handle run_line in
            best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1000.);
            result_chars :=
              String.length
                (Option.value ~default:""
                   (Json.str_opt (Json.member "result" (Json.parse resp))))
          done;
          printf "  %d worker%s: %8.1f ms  (%d result chars)\n" workers
            (if workers = 1 then " " else "s")
            !best !result_chars;
          record_json
            [ ("section", Json.Str "cluster");
              ("workers", Json.of_int workers); ("ms", Json.Num !best);
              ("result_chars", Json.of_int !result_chars) ];
          Cluster.shutdown cluster)
      [ 1; 2; 4 ];
    printf
      "\n  1 worker routes whole (scatter needs two live replicas); 2 and\n\
      \  4 split the seed into that many residue classes per Theorem 3.2.\n\
      \  Equal result_chars across rows is the parity check; at smoke\n\
      \  sizes socket round-trips dominate, so expect speedups only on\n\
      \  documents large enough to amortize the gather.\n\n"

(* ------------------------------------------------------------------ *)
(* IVM: cached query after a small edit vs full recompute              *)
(* ------------------------------------------------------------------ *)

(* The differential-maintenance headline: adopt an eligible fixpoint
   into the IVM engine (first run), apply a 1-node patch-doc insert
   (which maintains the cached entry in place from the edit frontier),
   and serve the query again from the cache — measured against a
   cache-bypassing full recompute on the patched document. Byte
   equality of the two results is the soundness check; the wall-clock
   gap is the O(|∆|)-vs-O(run) claim. *)
let ivm_bench () =
  printf "== IVM: cached query after a 1-node edit vs full recompute ==\n\n";
  let module Server = Fixq_service.Server in
  let query =
    "with $x seeded by doc(\"auction.xml\")/site recurse \
     $x/descendant-or-self::*/bidder"
  in
  let run_line =
    Json.to_string
      (Json.Obj [ ("op", Json.Str "run"); ("query", Json.Str query) ])
  in
  let nocache_line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "run"); ("query", Json.Str query);
           ("cache", Json.Bool false) ])
  in
  let patch_line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "patch-doc"); ("uri", Json.Str "auction.xml");
           ("action", Json.Str "insert"); ("path", Json.Str "/site/people");
           ("xml", Json.Str "<person><name>Edit Probe</name></person>") ])
  in
  let member_str name resp =
    Option.value ~default:"" (Json.str_opt (Json.member name (Json.parse resp)))
  in
  let member_int name resp =
    Option.value ~default:(-1) (Json.int_opt (Json.member name (Json.parse resp)))
  in
  List.iter
    (fun (label, scale) ->
      let server = Server.create () in
      let send line = fst (Server.handle_line server line) in
      ignore
        (send
           (Printf.sprintf
              {|{"op":"load-doc","uri":"auction.xml","generate":"xmark","size":%g,"seed":42}|}
              scale));
      ignore (send run_line) (* populate + adopt *);
      (* each round is a fresh 1-node edit. The edit itself (patch-doc,
         where differential maintenance runs) is timed separately; the
         compared quantity is what serving the query costs AFTER the
         edit — a maintained cache hit here, a full recompute without
         IVM (cache:false on the same patched document). Min of 3
         rounds apiece. *)
      let patch_ms = ref infinity in
      let hit_ms = ref infinity and recompute_ms = ref infinity in
      let maintained_entries = ref 0 and cache_status = ref "" in
      let hit_result = ref "" and fresh_result = ref "" in
      for _ = 1 to 3 do
        let t0 = Unix.gettimeofday () in
        let patch_resp = send patch_line in
        patch_ms :=
          Float.min !patch_ms ((Unix.gettimeofday () -. t0) *. 1000.);
        let t1 = Unix.gettimeofday () in
        let hit_resp = send run_line in
        hit_ms := Float.min !hit_ms ((Unix.gettimeofday () -. t1) *. 1000.);
        maintained_entries := member_int "maintained" patch_resp;
        cache_status := member_str "result_cache" hit_resp;
        hit_result := member_str "result" hit_resp;
        let t2 = Unix.gettimeofday () in
        let fresh_resp = send nocache_line in
        recompute_ms :=
          Float.min !recompute_ms ((Unix.gettimeofday () -. t2) *. 1000.);
        fresh_result := member_str "result" fresh_resp
      done;
      let byte_equal = !hit_result = !fresh_result in
      let speedup = !recompute_ms /. Float.max !hit_ms 1e-9 in
      printf
        "  %-14s patch %6.2f ms   cached %6.3f ms   recompute %8.2f ms   \
         %5.1fx   %s, cache %s, %d maintained\n"
        label !patch_ms !hit_ms !recompute_ms speedup
        (if byte_equal then "bytes equal" else "BYTES DIFFER")
        !cache_status !maintained_entries;
      record_json
        [ ("section", Json.Str "ivm"); ("doc", Json.Str label);
          ("scale", Json.Num scale);
          ("patch_ms", Json.Num !patch_ms);
          ("maintained_ms", Json.Num !hit_ms);
          ("recompute_ms", Json.Num !recompute_ms);
          ("speedup", Json.Num speedup);
          ("maintained_entries", Json.of_int !maintained_entries);
          ("result_cache", Json.Str !cache_status);
          ("byte_equal", Json.Bool byte_equal) ])
    [ ("bidder-small", 0.004); ("bidder-medium", 0.01);
      ("bidder-large", 0.024) ];
  printf
    "\n  patch = the edit itself, including differential maintenance of\n\
    \  every eligible cached entry (paid once per edit, amortized over\n\
    \  all cached queries); cached = serving the query after the edit\n\
    \  from the maintained cache — without IVM the same request would\n\
    \  cost the recompute column. Byte equality is asserted per row.\n\n"

(* ------------------------------------------------------------------ *)
(* Recovery: snapshot + tail vs full-history replay                    *)
(* ------------------------------------------------------------------ *)

(* Durability headline: after a long patch history, how fast does state
   come back? The cold-start row starts a stateful server over the same
   state directory twice — before any snapshot (full WAL replay:
   regenerate the document, re-apply every patch) and after one (decode
   the materialized registry, replay the short tail). The respawn row
   is the cluster-side analogue: replaying a worker's recorded line
   history with compaction off (every line re-sent) vs on (one
   materialized load-doc). Byte equality against the pre-crash answer
   is asserted per row. *)
let recovery_bench () =
  printf "== Recovery: snapshot + tail vs full-history replay ==\n\n";
  let module Server = Fixq_service.Server in
  let module Coordinator = Fixq_cluster.Coordinator in
  let member_str name resp =
    Option.value ~default:""
      (Json.str_opt (Json.member name (Json.parse resp)))
  in
  (* per-row history length: re-applying a patch costs O(doc), so a few
     hundred ops already make full replay dwarf the snapshot's one-time
     O(doc) decode — and keep the bench itself quick *)
  let cold_patches = 500 in
  let respawn_patches = 200 in
  let load =
    {|{"op":"load-doc","uri":"auction.xml","generate":"xmark","size":0.024,"seed":42}|}
  in
  let patch =
    {|{"op":"patch-doc","uri":"auction.xml","action":"insert","path":"/site","xml":"<chaos/>"}|}
  in
  let query =
    "with $x seeded by doc(\"auction.xml\")/site recurse \
     $x/descendant-or-self::*/bidder"
  in
  let nocache_line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "run"); ("query", Json.Str query);
           ("cache", Json.Bool false) ])
  in
  let report case patches replay_ms snapshot_ms byte_equal =
    let speedup = replay_ms /. Float.max snapshot_ms 1e-9 in
    printf
      "  %-10s  full replay %8.1f ms   snapshot+tail %8.1f ms   %5.1fx   %s\n"
      case replay_ms snapshot_ms speedup
      (if byte_equal then "bytes equal" else "BYTES DIFFER");
    record_json
      [ ("section", Json.Str "recovery"); ("case", Json.Str case);
        ("patches", Json.of_int patches);
        ("replay_ms", Json.Num replay_ms);
        ("snapshot_ms", Json.Num snapshot_ms);
        ("speedup", Json.Num speedup);
        ("byte_equal", Json.Bool byte_equal) ]
  in

  (* serve --state-dir cold start *)
  let dir =
    let d = Filename.temp_file "fixq-recovery" "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  (* threshold 0 disables the op-count snapshot trigger: the only
     snapshot in this row is the explicit one between the two cold
     starts, so cold start #1 really replays the whole history *)
  let mk () =
    Server.create
      ~config:
        { Server.default_config with
          state_dir = Some dir; snapshot_threshold = 0 }
      ()
  in
  let send s line = fst (Server.handle_line s line) in
  let a = mk () in
  ignore (send a load);
  for _ = 1 to cold_patches do
    ignore (send a patch)
  done;
  let expected = member_str "result" (send a nocache_line) in
  (* crash (no shutdown): cold start #1 replays the whole WAL —
     regenerate the document, re-apply every patch. Recovery is
     read-only until the next accepted op, so cold starts can be
     repeated over the same directory; min of 3 damps GC noise. *)
  let cold_start () =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let s = mk () in
    ((Unix.gettimeofday () -. t0) *. 1000., s)
  in
  let min_of_3 () =
    let best_ms = ref infinity and last = ref None in
    for _ = 1 to 3 do
      let (ms, s) = cold_start () in
      if ms < !best_ms then best_ms := ms;
      last := Some s
    done;
    (!best_ms, Option.get !last)
  in
  let (replay_ms, b) = min_of_3 () in
  let replay_equal = member_str "result" (send b nocache_line) = expected in
  (* snapshot, keep a short tail, cold start #2 decodes the
     materialized registry and replays five ops *)
  ignore (send b {|{"op":"snapshot"}|});
  for _ = 1 to 5 do
    ignore (send b patch)
  done;
  let expected2 = member_str "result" (send b nocache_line) in
  let (snapshot_ms, c) = min_of_3 () in
  let snapshot_equal =
    member_str "result" (send c nocache_line) = expected2
  in
  report "cold-start" cold_patches replay_ms snapshot_ms
    (replay_equal && snapshot_equal);
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());

  (* coordinator respawn replay, compaction off vs on *)
  let respawn_ms compact_patches =
    let servers =
      ref [ ("w0", Server.create ()); ("w1", Server.create ()) ]
    in
    let backend =
      { Coordinator.workers = [ "w0"; "w1" ];
        send =
          (fun name ~timeout_ms:_ line ->
            match List.assoc_opt name !servers with
            | Some s -> Ok (fst (Server.handle_line s line))
            | None -> Error "unknown worker");
        info = (fun _ -> []);
        restarts = (fun () -> 0);
        stop = ignore;
        add_worker = (fun () -> Error "fixed fleet");
        retire_worker = ignore;
        kill_worker = ignore }
    in
    let coord =
      Coordinator.create
        ~config:
          { Coordinator.default_config with
            replication = 2; compact_patches }
        backend
    in
    let chandle line = fst (Coordinator.handle_line coord line) in
    ignore (chandle load);
    for _ = 1 to respawn_patches do
      ignore (chandle patch)
    done;
    let expected = member_str "result" (chandle nocache_line) in
    (* kill w1: replace it with a fresh empty process, time the replay *)
    servers := ("w1", Server.create ()) :: List.remove_assoc "w1" !servers;
    let t0 = Unix.gettimeofday () in
    Coordinator.on_worker_respawn coord "w1";
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    (ms, member_str "result" (chandle nocache_line) = expected)
  in
  let (respawn_replay_ms, eq_off) = respawn_ms 0 in
  let (respawn_compact_ms, eq_on) = respawn_ms 16 in
  report "respawn" respawn_patches respawn_replay_ms respawn_compact_ms
    (eq_off && eq_on);
  printf
    "\n  cold-start = Server.create over the same --state-dir (recovery\n\
    \  runs inside create): full WAL replay vs decoding the materialized\n\
    \  snapshot plus a 5-op tail. respawn = Coordinator.on_worker_respawn\n\
    \  replaying a worker's doc history into a fresh process, full line\n\
    \  history vs one compacted load-doc.\n\n"

(* ------------------------------------------------------------------ *)
(* Accumulator scaling: per-round cost vs |res|                        *)
(* ------------------------------------------------------------------ *)

(* A chain document makes the recursion advance exactly one node per
   round for thousands of rounds: ∆ stays 1 while the accumulated
   result grows to |chain|. If per-round accumulation cost depended on
   |res| — the old [except]/[union]-over-everything loop re-sorted the
   whole result each round — late rounds would be measurably slower
   than early ones; with the run-based accumulator they stay flat. *)
let accum () =
  printf "== Accumulator scaling: round cost as |res| grows ==\n\n";
  let module Eval = Fixq_lang.Eval in
  let module Fixpoint = Fixq_lang.Fixpoint in
  let links = 4000 in
  let registry = Doc_registry.create () in
  let doc =
    let buf = Buffer.create (links * 28) in
    Buffer.add_string buf "<chain>";
    for i = 1 to links do
      Buffer.add_string buf
        (Printf.sprintf {|<n id="p%d" next="p%d"/>|} i (i + 1))
    done;
    Buffer.add_string buf "</chain>";
    Fixq_xdm.Xml_parser.parse_string ~uri:"chain.xml" (Buffer.contents buf)
  in
  Node.register_id_attribute doc "id";
  Doc_registry.register ~registry "chain.xml" doc;
  let ev = Eval.create ~registry () in
  let body_expr = Parser.parse_expr "$x/id(@next)" in
  let body input = Eval.eval_expr ev ~vars:[ ("x", input) ] body_expr in
  let seed =
    Eval.eval_expr ev (Parser.parse_expr {|doc("chain.xml")/chain/n[@id = "p1"]|})
  in
  let stats = Stats.create () in
  let result = Fixpoint.delta ~stats ~body ~seed () in
  let rounds = Array.of_list (Stats.last_run stats) in
  let n = Array.length rounds in
  let window = max 50 (n / 8) in
  let avg lo hi =
    let s = ref 0.0 in
    for i = lo to hi do
      s := !s +. rounds.(i).Stats.round_ms
    done;
    !s /. float_of_int (hi - lo + 1)
  in
  (* skip the first [window] rounds (JIT-less, but caches/GC warm up)
     and the final empty round *)
  let early = avg window (min (n - 1) ((2 * window) - 1)) in
  let late = avg (max 0 (n - 1 - (2 * window))) (n - 1 - window) in
  let ratio = if early > 0.0 then late /. early else Float.nan in
  let k = Stats.run_kernel_totals stats in
  printf "  chain of %d nodes, ∆ = 1 node/round, %d rounds\n" links n;
  printf "  result size %d, early rounds avg %.4f ms, late rounds avg %.4f ms\n"
    (List.length result) early late;
  printf "  late/early ratio ×%.2f (%s)\n" ratio
    (if ratio < 2.0 then "flat: accumulation cost independent of |res|"
     else "NOT FLAT: round cost grows with the accumulated result");
  printf "  kernel: %d bitmap tests (%d hits), %d merges, %d fallback sorts\n\n"
    k.Fixq_xdm.Counters.bitmap_tests k.Fixq_xdm.Counters.bitmap_hits
    k.Fixq_xdm.Counters.merges k.Fixq_xdm.Counters.fallback_sorts;
  record_json
    [ ("section", Json.Str "accum"); ("links", Json.of_int links);
      ("rounds", Json.of_int n);
      ("result_size", Json.of_int (List.length result));
      ("early_ms_per_round", Json.Num early);
      ("late_ms_per_round", Json.Num late); ("late_over_early", Json.Num ratio);
      ("kernel_bitmap_tests", Json.of_int k.Fixq_xdm.Counters.bitmap_tests);
      ("kernel_bitmap_hits", Json.of_int k.Fixq_xdm.Counters.bitmap_hits);
      ("kernel_merges", Json.of_int k.Fixq_xdm.Counters.merges);
      ("kernel_fallback_sorts",
       Json.of_int k.Fixq_xdm.Counters.fallback_sorts) ]

(* ------------------------------------------------------------------ *)
(* Columnar executor + SQL:1999 backend                                *)
(* ------------------------------------------------------------------ *)

(* The vectorized batch kernels under the algebra engine, per workload
   family: wall-clock against the row-at-a-time interpreter, the batch
   counters (batches executed, rows moved, rows that crossed the boxed
   [Value.t] boundary — the vectorization payoff is a low
   boxed/total ratio), and — where the body renders to the Table-1
   SQL:1999 dialect — the [WITH RECURSIVE] backend's wall-clock on the
   same document with a result-parity check. *)
let columnar_bench () =
  printf "== Columnar executor (batch kernels, SQL:1999 backend) ==\n\n";
  let module Counters = Fixq_xdm.Counters in
  let families =
    [ ("curriculum-q1", W.Queries.q1,
       fun registry ->
         ignore
           (W.Curriculum.load ~registry
              { W.Curriculum.default with W.Curriculum.courses = 400 }));
      ("curriculum-check", W.Queries.curriculum_check,
       fun registry ->
         ignore
           (W.Curriculum.load ~registry
              { W.Curriculum.default with W.Curriculum.courses = 400 }));
      ("bidder", W.Queries.bidder_network,
       fun registry ->
         ignore
           (W.Xmark.load ~registry
              { W.Xmark.default with W.Xmark.scale = 0.004 }));
      ("dialogs", W.Queries.dialogs,
       fun registry ->
         ignore (W.Shakespeare.load ~registry W.Shakespeare.default));
      ("hospital", W.Queries.hospital,
       fun registry ->
         ignore
           (W.Hospital.load ~registry
              { W.Hospital.default with W.Hospital.total = 20_000 })) ]
  in
  printf "%-18s | %9s | %9s | %9s | %8s | %11s | %6s\n" "Family" "interp ms"
    "column ms" "sql ms" "batches" "rows(boxed)" "ok";
  printf "%s\n" (String.make 84 '-');
  List.iter
    (fun (name, query, setup) ->
      let registry = Doc_registry.create () in
      setup registry;
      let run engine =
        let before = Counters.snapshot () in
        let r = Fixq.run ~registry ~engine query in
        (r, Counters.diff (Counters.snapshot ()) before)
      in
      let (interp, _) = run (Fixq.Interpreter Fixq.Auto) in
      let (alg, k) = run (Fixq.Algebra Fixq.Auto) in
      (* a separate profiled run, so the per-operator clock reads stay
         out of [algebra_ms] *)
      let profile =
        Plan_eval.reset_profile ();
        Plan_eval.profile_timing := true;
        Fun.protect
          ~finally:(fun () -> Plan_eval.profile_timing := false)
          (fun () ->
            ignore (Fixq.run ~registry ~engine:(Fixq.Algebra Fixq.Auto) query));
        Plan_eval.profile_rows ()
      in
      let renderable =
        match
          Fixq.sql_of_first_ifp ~registry (Parser.parse_program query)
        with
        | Some (Ok _) -> true
        | _ -> false
      in
      let sql = if renderable then Some (run (Fixq.Sql Fixq.Auto)) else None in
      let same a b =
        Item.set_equal a.Fixq.result b.Fixq.result
        || Item.deep_equal a.Fixq.result b.Fixq.result
      in
      let agree =
        same interp alg
        && match sql with Some (s, _) -> same interp s | None -> true
      in
      printf "%-18s | %9.1f | %9.1f | %9s | %8d | %5d(%4d)k | %6s\n%!" name
        interp.Fixq.wall_ms alg.Fixq.wall_ms
        (match sql with
        | Some (s, _) -> Printf.sprintf "%.1f" s.Fixq.wall_ms
        | None -> "—")
        k.Counters.col_batches
        (k.Counters.col_rows / 1000)
        (k.Counters.col_boxed_rows / 1000)
        (if agree then "yes" else "NO");
      List.iteri
        (fun i (r : Plan_eval.profile_row) ->
          if i < 3 then
            printf "%18s   %s:%-24s %8.2f ms self, %6d evals, %8d rows\n"
              (if i = 0 then "top operators" else "") r.Plan_eval.lifetime
              r.Plan_eval.op r.Plan_eval.self_ms r.Plan_eval.evals
              r.Plan_eval.rows)
        profile;
      record_json
        [ ("section", Json.Str "columnar"); ("family", Json.Str name);
          ("interp_ms", Json.Num interp.Fixq.wall_ms);
          ("algebra_ms", Json.Num alg.Fixq.wall_ms);
          ("sql_ms",
           match sql with
           | Some (s, _) -> Json.Num s.Fixq.wall_ms
           | None -> Json.Null);
          ("sql_renderable", Json.Bool renderable);
          ("col_batches", Json.of_int k.Counters.col_batches);
          ("col_rows", Json.of_int k.Counters.col_rows);
          ("col_boxed_rows", Json.of_int k.Counters.col_boxed_rows);
          ("agree", Json.Bool agree);
          ("profile",
           Json.List
             (List.map
                (fun (r : Plan_eval.profile_row) ->
                  Json.Obj
                    [ ("op", Json.Str r.Plan_eval.op);
                      ("lifetime", Json.Str r.Plan_eval.lifetime);
                      ("evals", Json.of_int r.Plan_eval.evals);
                      ("rows", Json.of_int r.Plan_eval.rows);
                      ("self_ms", Json.Num r.Plan_eval.self_ms) ])
                profile)) ])
    families;
  printf "\n"

(* ------------------------------------------------------------------ *)
(* Static cost analyzer: calibration and --engine auto                 *)
(* ------------------------------------------------------------------ *)

(* Per workload family: the analyzer's per-engine estimates next to
   measured wall-clock on every engine, the certified round bound next
   to the actual recursion depth (it must never be exceeded), and the
   auto pick next to the worst fixed engine (it must never be slower,
   modulo measurement noise). *)
let cost_bench () =
  printf "== Static cost analyzer: estimates vs measurements ==\n\n";
  let module E = Fixq_cost.Estimate in
  let families =
    [ ("curriculum-q1", W.Queries.q1,
       fun registry ->
         ignore
           (W.Curriculum.load ~registry
              { W.Curriculum.default with W.Curriculum.courses = 400 }));
      ("curriculum-check", W.Queries.curriculum_check,
       fun registry ->
         ignore
           (W.Curriculum.load ~registry
              { W.Curriculum.default with W.Curriculum.courses = 400 }));
      ("bidder", W.Queries.bidder_network,
       fun registry ->
         ignore
           (W.Xmark.load ~registry
              { W.Xmark.default with W.Xmark.scale = 0.004 }));
      ("dialogs", W.Queries.dialogs,
       fun registry ->
         ignore (W.Shakespeare.load ~registry W.Shakespeare.default));
      ("hospital", W.Queries.hospital,
       fun registry ->
         ignore
           (W.Hospital.load ~registry
              { W.Hospital.default with W.Hospital.total = 20_000 })) ]
  in
  let analyze registry query =
    E.of_program ~registry (Parser.parse_program query)
  in
  printf "%-18s | %-7s | %9s | %9s | %9s | %7s | %6s | %5s\n" "Family"
    "chosen" "interp ms" "algeb. ms" "sql ms" "auto ms" "rounds" "bound";
  printf "%s\n" (String.make 88 '-');
  List.iter
    (fun (name, query, setup) ->
      let registry = Doc_registry.create () in
      setup registry;
      let est = analyze registry query in
      let run engine = Fixq.run ~registry ~engine query in
      let interp = run (Fixq.Interpreter Fixq.Auto) in
      let alg = run (Fixq.Algebra Fixq.Auto) in
      let sql = run (Fixq.Sql Fixq.Auto) in
      let fixed =
        [ ("interp", interp); ("algebra", alg); ("sql", sql) ]
      in
      let chosen_engine =
        match est.E.chosen with
        | "algebra" -> Fixq.Algebra Fixq.Auto
        | "sql" -> Fixq.Sql Fixq.Auto
        | _ -> Fixq.Interpreter Fixq.Auto
      in
      let auto = run chosen_engine in
      let worst_ms =
        List.fold_left
          (fun acc (_, r) -> Float.max acc r.Fixq.wall_ms)
          0. fixed
      in
      (* auto re-runs its pick, so compare with noise headroom *)
      let never_slower =
        auto.Fixq.wall_ms <= (worst_ms *. 1.10) +. 2.0
      in
      let actual_rounds =
        List.fold_left
          (fun acc (_, r) -> max acc r.Fixq.depth)
          auto.Fixq.depth fixed
      in
      let bound_ok =
        match est.E.rounds_bound with
        | Some b -> actual_rounds <= b
        | None -> true
      in
      let agree =
        let same a b =
          Item.set_equal a.Fixq.result b.Fixq.result
          || Item.deep_equal a.Fixq.result b.Fixq.result
        in
        same interp alg && same interp sql && same interp auto
      in
      printf "%-18s | %-7s | %9.1f | %9.1f | %9.1f | %7.1f | %6d | %5s\n%!"
        name est.E.chosen interp.Fixq.wall_ms alg.Fixq.wall_ms
        sql.Fixq.wall_ms auto.Fixq.wall_ms actual_rounds
        (match est.E.rounds_bound with
        | Some b -> string_of_int b
        | None -> "—");
      let est_cost eng =
        match
          List.find_opt (fun e -> e.E.eng_name = eng) est.E.engines
        with
        | Some e -> Json.Num (Float.round e.E.eng_cost)
        | None -> Json.Null
      in
      record_json
        [ ("section", Json.Str "cost"); ("family", Json.Str name);
          ("work", Json.Num (Float.round est.E.work));
          ("chosen", Json.Str est.E.chosen);
          ("est_interp", est_cost "interp");
          ("est_algebra", est_cost "algebra");
          ("est_sql", est_cost "sql");
          ("interp_ms", Json.Num interp.Fixq.wall_ms);
          ("algebra_ms", Json.Num alg.Fixq.wall_ms);
          ("sql_ms", Json.Num sql.Fixq.wall_ms);
          ("auto_ms", Json.Num auto.Fixq.wall_ms);
          ("worst_ms", Json.Num worst_ms);
          ("never_slower", Json.Bool never_slower);
          ("rounds_bound",
           (match est.E.rounds_bound with
           | Some b -> Json.of_int b
           | None -> Json.Null));
          ("actual_rounds", Json.of_int actual_rounds);
          ("bound_ok", Json.Bool bound_ok);
          ("agree", Json.Bool agree) ])
    families;
  printf "\n"

(* ------------------------------------------------------------------ *)
(* Semiring-annotated fixpoints: recursive aggregates per kind         *)
(* ------------------------------------------------------------------ *)

(* [accumulate by] over the paper's workloads: min (cheapest
   prerequisite chain, cross-checked against a reference Bellman-Ford
   on the extracted edge relation), max (widest-path bidder reach),
   count and why (path multiplicity / seed witnesses on an acyclic
   curriculum), and the bool semiring's parity with the legacy IFP
   (same bytes, comparable time). *)
let semiring_bench () =
  printf "== Semiring fixpoints: accumulate by over the paper's workloads ==\n\n";
  let module Eval = Fixq_lang.Eval in
  let module Semiring = Fixq_semiring.Semiring in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let code_of n =
    List.find_opt (fun a -> Node.name a = "code") (Node.attributes n)
    |> Option.fold ~none:"" ~some:Node.string_value
  in
  let annotated ~registry src =
    let ev = Eval.create ~registry () in
    let (result, wall_ms) = time (fun () -> Eval.run_string ev src) in
    (result, wall_ms, Eval.last_annotations ev)
  in
  let row ~kind ~doc ~wall_ms ~result_size ~cross_check =
    printf "  %-5s %-18s %8.2f ms  %5d annotated  %s\n" kind doc wall_ms
      result_size cross_check;
    record_json
      [ ("section", Json.Str "semiring"); ("kind", Json.Str kind);
        ("doc", Json.Str doc); ("wall_ms", Json.Num wall_ms);
        ("result_size", Json.of_int result_size);
        ("cross_check", Json.Str cross_check) ]
  in
  (* Seed at the course with the largest transitive prerequisite
     closure — any given course may have none at all. *)
  let pick_seed doc courses =
    let best = ref "c1" and best_n = ref 0 in
    for i = 1 to courses do
      let c = Printf.sprintf "c%d" i in
      let n =
        List.length (W.Curriculum.cheapest_prerequisite_costs doc ~from:c)
      in
      if n > !best_n then begin
        best := c;
        best_n := n
      end
    done;
    !best
  in
  (* Tropical semiring vs reference shortest paths. *)
  let courses = 400 in
  let registry = Doc_registry.create () in
  let doc =
    W.Curriculum.load_weighted ~registry
      { W.Curriculum.default with W.Curriculum.courses }
  in
  let from = pick_seed doc courses in
  let (result, wall_ms, anns) =
    annotated ~registry (W.Queries.cheapest_prerequisite from)
  in
  let kernel_costs =
    match anns with
    | Some (Semiring.Min, entries) ->
      List.filter_map
        (fun (n, a) ->
          match a with
          | Semiring.Num d -> Some (code_of n, d)
          | _ -> None)
        entries
      |> List.sort compare
    | _ -> []
  in
  let reference =
    W.Curriculum.cheapest_prerequisite_costs doc ~from
    |> List.sort compare
  in
  row ~kind:"min"
    ~doc:(Printf.sprintf "curriculum-%d" courses)
    ~wall_ms ~result_size:(List.length result)
    ~cross_check:
      (if kernel_costs = reference && kernel_costs <> [] then
         "Bellman-Ford agrees"
       else "BELLMAN-FORD DISAGREES");
  (* Widest path over the rated bidder network. *)
  let registry = Doc_registry.create () in
  ignore
    (W.Xmark.load_weighted ~registry
       { W.Xmark.default with W.Xmark.scale = 0.004 });
  let (result, wall_ms, anns) =
    annotated ~registry (W.Queries.weighted_bidder_reach "person0")
  in
  let max_ok =
    match anns with
    | Some (Semiring.Max, entries) ->
      entries <> []
      && List.for_all
           (fun (_, a) ->
             match a with Semiring.Num d -> d >= 1.0 | _ -> false)
           entries
    | _ -> false
  in
  row ~kind:"max" ~doc:"xmark-0.004" ~wall_ms
    ~result_size:(List.length result)
    ~cross_check:
      (if max_ok then "bottleneck ratings in range" else "NO ANNOTATIONS");
  (* Count and why on an acyclic curriculum (count is unstable on
     cycles — Analyze flags it FQ043 and serve refuses it unbudgeted). *)
  let registry = Doc_registry.create () in
  let dag =
    W.Curriculum.load_weighted ~registry
      { W.Curriculum.default with
        W.Curriculum.courses;
        back_edge_fraction = 0.0 }
  in
  let from = pick_seed dag courses in
  let (result, wall_ms, anns) =
    annotated ~registry (W.Queries.counted_closure from)
  in
  let paths =
    match anns with
    | Some (Semiring.Count, entries) ->
      List.fold_left
        (fun acc (_, a) ->
          match a with Semiring.Num d -> acc +. d | _ -> acc)
        0.0 entries
    | _ -> 0.0
  in
  row ~kind:"count"
    ~doc:(Printf.sprintf "curriculum-%d-dag" courses)
    ~wall_ms ~result_size:(List.length result)
    ~cross_check:(Printf.sprintf "%.0f derivation paths" paths);
  let (result, wall_ms, anns) =
    annotated ~registry (W.Queries.witnessed_closure from)
  in
  let why_ok =
    match anns with
    | Some (Semiring.Why, entries) ->
      entries <> []
      && List.for_all
           (fun (_, a) ->
             match a with
             | Semiring.Wit w -> Semiring.Int_set.cardinal w = 1
             | _ -> false)
           entries
    | _ -> false
  in
  row ~kind:"why"
    ~doc:(Printf.sprintf "curriculum-%d-dag" courses)
    ~wall_ms ~result_size:(List.length result)
    ~cross_check:
      (if why_ok then "single-seed witnesses" else "WITNESSES OFF");
  (* Bool semiring: same bytes as the legacy fixpoint, comparable
     time. *)
  let registry = Doc_registry.create () in
  let doc =
    W.Curriculum.load_weighted ~registry
      { W.Curriculum.default with W.Curriculum.courses }
  in
  let from = pick_seed doc courses in
  let p =
    Parser.parse_program
      (Printf.sprintf
         {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="%s"]
recurse $x/id(./prerequisites/pre_code)|}
         from)
  in
  let bool_p =
    let rewrite e =
      Fixq_lang.Rewrite.map_expr
        (function
          | Fixq_lang.Ast.Ifp { var; seed; body; accum = None } ->
            Fixq_lang.Ast.Ifp
              { var; seed; body;
                accum =
                  Some { Fixq_lang.Ast.kind = Semiring.Bool; weight = None } }
          | e -> e)
        e
    in
    { p with Fixq_lang.Ast.main = rewrite p.Fixq_lang.Ast.main }
  in
  let engine = Fixq.Interpreter Fixq.Auto in
  let plain = Fixq.run_program ~registry ~engine p in
  let annotated_run = Fixq.run_program ~registry ~engine bool_p in
  let byte_equal =
    Fixq_xdm.Serializer.seq_to_string plain.Fixq.result
    = Fixq_xdm.Serializer.seq_to_string annotated_run.Fixq.result
  in
  printf "  bool  curriculum-%d      plain %6.2f ms  annotated %6.2f ms  %s\n"
    courses plain.Fixq.wall_ms annotated_run.Fixq.wall_ms
    (if byte_equal then "bytes equal" else "BYTES DIFFER");
  record_json
    [ ("section", Json.Str "semiring"); ("kind", Json.Str "bool");
      ("doc", Json.Str (Printf.sprintf "curriculum-%d" courses));
      ("wall_ms", Json.Num annotated_run.Fixq.wall_ms);
      ("result_size", Json.of_int (List.length annotated_run.Fixq.result));
      ("plain_wall_ms", Json.Num plain.Fixq.wall_ms);
      ("cross_check",
       Json.Str (if byte_equal then "bytes equal" else "BYTES DIFFER")) ];
  printf "\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  printf "== Micro-benchmarks (bechamel) ==\n\n";
  let registry = Doc_registry.create () in
  ignore
    (W.Curriculum.load ~registry
       { W.Curriculum.default with W.Curriculum.courses = 200 });
  ignore
    (W.Shakespeare.load ~registry
       { W.Shakespeare.default with W.Shakespeare.acts = 2; scenes_per_act = 2 });
  ignore
    (W.Hospital.load ~registry
       { W.Hospital.default with W.Hospital.total = 2000 });
  let bench name engine query =
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () -> ignore (Fixq.run ~registry ~engine query)))
  in
  let tests =
    Bechamel.Test.make_grouped ~name:"ifp"
      [ bench "curriculum/interp-naive" (Fixq.Interpreter Fixq.Naive)
          W.Queries.curriculum_check;
        bench "curriculum/interp-delta" (Fixq.Interpreter Fixq.Auto)
          W.Queries.curriculum_check;
        bench "curriculum/algebra-mu" (Fixq.Algebra Fixq.Naive)
          W.Queries.curriculum_check;
        bench "curriculum/algebra-mudelta" (Fixq.Algebra Fixq.Auto)
          W.Queries.curriculum_check;
        bench "dialogs/interp-naive" (Fixq.Interpreter Fixq.Naive)
          W.Queries.dialogs;
        bench "dialogs/interp-delta" (Fixq.Interpreter Fixq.Auto)
          W.Queries.dialogs;
        bench "hospital/interp-naive" (Fixq.Interpreter Fixq.Naive)
          W.Queries.hospital;
        bench "hospital/interp-delta" (Fixq.Interpreter Fixq.Auto)
          W.Queries.hospital ]
  in
  (* The set kernels under the fixpoint loops, on real node lists: the
     hospital document's elements whole, reversed (worst case for the
     sortedness fast path) and interleaved halves. *)
  let kernel_tests =
    let all =
      (Fixq.run ~registry ~engine:(Fixq.Interpreter Fixq.Naive)
         {|doc("hospital.xml")//*|})
        .Fixq.result
    in
    let rev = List.rev all in
    let even = List.filteri (fun i _ -> i mod 2 = 0) all in
    let odd = List.filteri (fun i _ -> i mod 2 = 1) all in
    let k name f =
      Bechamel.Test.make ~name (Bechamel.Staged.stage (fun () -> ignore (f ())))
    in
    Bechamel.Test.make_grouped ~name:"kernel"
      [ k "ddo/sorted" (fun () -> Item.ddo all);
        k "ddo/reversed" (fun () -> Item.ddo rev);
        k "union/interleaved" (fun () -> Item.union even odd);
        k "except/half" (fun () -> Item.except all odd);
        k "intersect/half" (fun () -> Item.intersect all odd);
        k "accumulator/absorb" (fun () ->
            let a = Fixq_xdm.Accumulator.create () in
            ignore (Fixq_xdm.Accumulator.absorb a ~who:"bench" even);
            Fixq_xdm.Accumulator.absorb a ~who:"bench" odd) ]
  in
  (* The columnar batch kernels on (iter, item) relations built from the
     same hospital elements: the shapes the µ/µ∆ loops execute every
     round. *)
  let columnar_tests =
    let module R = Fixq_algebra.Relation in
    let module V = Fixq_algebra.Value in
    let all =
      (Fixq.run ~registry ~engine:(Fixq.Interpreter Fixq.Naive)
         {|doc("hospital.xml")//*|})
        .Fixq.result
    in
    let nodes =
      List.filter_map (function Item.N n -> Some n | Item.A _ -> None) all
    in
    let rel =
      R.create [ "iter"; "item" ]
        (List.mapi (fun i n -> [| V.Int (i mod 7); V.Nd n |]) nodes)
    in
    (* every other row, back on [rel]'s schema so ∪ and \ accept it *)
    let even =
      R.project [ ("iter", "iter"); ("item", "item") ]
        (R.select_bool "pick" (R.append_col "pick"
           (R.col_of_values (Array.init (R.cardinal rel) (fun i -> V.Bool (i mod 2 = 0)))) rel))
    in
    let k name f =
      Bechamel.Test.make ~name (Bechamel.Staged.stage (fun () -> ignore (f ())))
    in
    Bechamel.Test.make_grouped ~name:"kernel/columnar"
      [ k "distinct" (fun () -> R.distinct rel);
        k "union" (fun () -> R.union even rel);
        k "difference" (fun () -> R.difference rel even);
        k "equi_join" (fun () -> R.equi_join [ ("item", "item") ] even rel);
        k "semi_join" (fun () -> R.semi_join [ ("item", "item") ] rel even);
        k "project" (fun () -> R.project [ ("item", "item") ] rel) ]
  in
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.concat_map
      (fun tests ->
        let raw = Benchmark.all cfg instances tests in
        let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
        Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [])
      [ tests; kernel_tests; columnar_tests ]
    |> List.sort compare
  in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        printf "%-42s %12.0f ns/run\n" name est;
        record_json
          [ ("section", Json.Str "micro"); ("name", Json.Str name);
            ("ns_per_run", Json.Num est) ]
      | _ -> printf "%-42s (no estimate)\n" name)
    rows;
  printf "\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  (* --json OUT (e.g. BENCH_table2.json): written on exit *)
  let json_out =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let rows = if has "--paper" then paper_rows else quick_rows in
  let explicit =
    List.exists
      (fun a ->
        List.mem a
          [ "table1"; "table2"; "figure9"; "example24"; "section41";
            "section6"; "section7"; "accum"; "micro"; "cluster"; "ivm";
            "semiring"; "columnar"; "cost"; "recovery" ])
      args
  in
  let when_ opt f = if (not explicit) || has opt then f () in
  (* table2 first: it reports wall-clock on a fresh heap, before the
     allocation-heavy micro/accum phases grow the major heap *)
  when_ "table2" (fun () -> table2 rows);
  when_ "table1" table1;
  when_ "figure9" figure9;
  when_ "example24" example24;
  when_ "section41" section41;
  when_ "section6" section6;
  when_ "section7" section7;
  when_ "accum" accum;
  when_ "columnar" columnar_bench;
  when_ "cost" cost_bench;
  when_ "semiring" semiring_bench;
  when_ "ivm" ivm_bench;
  (* opt-in like micro: stateful temp dirs + a long patch history *)
  when_ "recovery" (fun () -> if has "recovery" then recovery_bench ());
  when_ "micro" (fun () -> if has "micro" then micro ());
  (* opt-in like micro: needs the fixq binary built alongside *)
  when_ "cluster" (fun () -> if has "cluster" then cluster_bench ());
  Option.iter write_json json_out
