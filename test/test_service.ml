(* The fixq_service subsystem: JSON wire format, LRU caches, registry
   generations, the prepared-query layer, and the server's caching and
   failure behaviour end-to-end (through Server.handle_line, exactly
   what the pipe/socket transports feed). *)

module Service = Fixq_service
module Json = Service.Json
module Lru = Service.Lru
module Store = Service.Store
module Prepared = Service.Prepared
module Server = Service.Server
module Doc_registry = Fixq_xdm.Doc_registry
module Parser = Fixq_lang.Parser

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [ "null"; "true"; "false"; "0"; "-12"; "3.5"; "\"\"";
      "\"a \\\"b\\\" \\\\ \\n\""; "[]"; "[1,2,3]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}" ]
  in
  List.iter
    (fun s -> checks s s (Json.to_string (Json.parse s)))
    samples

let test_json_unicode () =
  checks "u-escape" "\"é\"" (Json.to_string (Json.parse {|"\u00e9"|}));
  (* surrogate pair: U+1F600 *)
  checks "surrogate" "\"\240\159\152\128\""
    (Json.to_string (Json.parse {|"\ud83d\ude00"|}));
  checks "control" {|"a\nb"|} (Json.to_string (Json.parse "\"a\\nb\""))

let test_json_errors () =
  let fails s =
    match Json.parse s with
    | _ -> Alcotest.failf "expected parse failure on %S" s
    | exception Json.Parse_error _ -> ()
  in
  List.iter fails
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}";
      "{\"a\":}"; "nul"; "[1]]" ]

let test_json_members () =
  let j = Json.parse {|{"op":"run","n":3,"b":true,"f":2.5}|} in
  checks "op" "run" (Option.get (Json.str_opt (Json.member "op" j)));
  checki "n" 3 (Option.get (Json.int_opt (Json.member "n" j)));
  checkb "b" true (Option.get (Json.bool_opt (Json.member "b" j)));
  checkb "f not int" true (Json.int_opt (Json.member "f" j) = None);
  checkb "absent" true (Json.member "missing" j = Json.Null)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;  (* evicts a *)
  checkb "a evicted" true (Lru.find c "a" = None);
  checkb "b live" true (Lru.find c "b" = Some 2);
  checkb "c live" true (Lru.find c "c" = Some 3);
  checki "len" 2 (Lru.length c)

let test_lru_promotion () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  ignore (Lru.find c "a");  (* a becomes MRU, b is now LRU *)
  Lru.put c "c" 3;  (* evicts b *)
  checkb "b evicted" true (Lru.find c "b" = None);
  checkb "a survived" true (Lru.find c "a" = Some 1);
  check
    Alcotest.(list string)
    "mru order" [ "a"; "c" ]
    (List.sort compare (Lru.keys c))

let test_lru_counters () =
  let c = Lru.create ~capacity:4 () in
  ignore (Lru.find c "x");  (* miss *)
  Lru.put c "x" 0;
  ignore (Lru.find c "x");  (* hit *)
  ignore (Lru.find c "y");  (* miss *)
  checki "hits" 1 (Lru.hits c);
  checki "misses" 2 (Lru.misses c)

(* ------------------------------------------------------------------ *)
(* Doc_registry generations                                            *)
(* ------------------------------------------------------------------ *)

let parse_doc xml = Fixq_xdm.Xml_parser.parse_string ~uri:"t.xml" xml

let test_registry_generation () =
  let registry = Doc_registry.create () in
  let gen () = Doc_registry.generation ~registry () in
  checki "fresh" 0 (gen ());
  Doc_registry.register ~registry "a.xml" (parse_doc "<a/>");
  checki "after register" 1 (gen ());
  Doc_registry.register ~registry "a.xml" (parse_doc "<a2/>");
  checki "re-register bumps" 2 (gen ());
  Doc_registry.unregister ~registry "missing.xml";
  checki "no-op unregister keeps" 2 (gen ());
  Doc_registry.unregister ~registry "a.xml";
  checki "unregister bumps" 3 (gen ());
  checkb "gone" true (Doc_registry.find ~registry "a.xml" = None);
  Doc_registry.register ~registry "b.xml" (parse_doc "<b/>");
  Doc_registry.clear ~registry ();
  checki "clear bumps" 5 (gen ());
  check Alcotest.(list string) "uris empty" [] (Doc_registry.uris ~registry ())

(* ------------------------------------------------------------------ *)
(* Prepared                                                            *)
(* ------------------------------------------------------------------ *)

let curriculum_xml =
  {|<!DOCTYPE curriculum [ <!ATTLIST course code ID #REQUIRED> ]>
<curriculum>
  <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
  <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c3"><prerequisites/></course>
  <course code="c4"><prerequisites/></course>
</curriculum>|}

let q1 =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
    recurse $x/id(./prerequisites/pre_code)|}

let q2 =
  {|let $seed := (<a/>,<b><c><d/></c></b>) return
    with $x seeded by $seed
    recurse if (count($x/self::a)) then $x/* else ()|}

let make_store () =
  let store = Store.create () in
  Store.load_xml store ~uri:"curriculum.xml" curriculum_xml;
  store

let prepare store q =
  Prepared.prepare ~store ~stratified:false ~max_iterations:10_000 q

let test_prepared_modes () =
  let store = make_store () in
  let p1 = prepare store q1 in
  let c1 = Prepared.compiled p1 in
  checki "q1 one ifp" 1 p1.Prepared.ifp_count;
  checkb "q1 syntactic" true p1.Prepared.syntactic;
  checkb "q1 algebraic" true (c1.Prepared.algebraic = Some true);
  checkb "q1 interp pins delta" true (p1.Prepared.interp_mode = Fixq.Delta);
  checkb "q1 algebra pins delta" true (c1.Prepared.algebra_mode = Fixq.Delta);
  checkb "q1 has plan" true (c1.Prepared.plan <> None);
  let p2 = prepare store q2 in
  let c2 = Prepared.compiled p2 in
  checkb "q2 syntactic" false p2.Prepared.syntactic;
  checkb "q2 algebraic" true (c2.Prepared.algebraic = Some false);
  checkb "q2 interp pins naive" true (p2.Prepared.interp_mode = Fixq.Naive);
  checkb "q2 algebra pins naive" true (c2.Prepared.algebra_mode = Fixq.Naive);
  let p3 = prepare store "1 + 1" in
  checki "no ifp" 0 p3.Prepared.ifp_count;
  checkb "no plan" true ((Prepared.compiled p3).Prepared.plan = None)

(* The prepared layer must agree with what `fixq check` reports — both
   call the same verdicts, but this pins the wiring. *)
let test_prepared_parity_with_check () =
  let store = make_store () in
  let registry = Store.registry store in
  List.iter
    (fun q ->
      let p = prepare store q in
      match
        Fixq.distributivity_verdicts ~registry (Parser.parse_program q)
      with
      | None -> checki "no ifp" 0 p.Prepared.ifp_count
      | Some (syn, alg) ->
        checkb "syntactic parity" syn p.Prepared.syntactic;
        checkb "algebraic parity" true
          (alg = (Prepared.compiled p).Prepared.algebraic))
    [ q1; q2; "count((1,2,3))" ]

let test_prepared_multi_ifp_keeps_auto () =
  let store = make_store () in
  let q =
    {|(with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
       recurse $x/id(./prerequisites/pre_code)),
      (with $y seeded by doc("curriculum.xml")/curriculum/course[@code="c2"]
       recurse $y/id(./prerequisites/pre_code))|}
  in
  let p = prepare store q in
  checki "two ifps" 2 p.Prepared.ifp_count;
  checkb "interp auto" true (p.Prepared.interp_mode = Fixq.Auto);
  checkb "algebra auto" true
    ((Prepared.compiled p).Prepared.algebra_mode = Fixq.Auto)

let test_prepared_rejects () =
  let store = make_store () in
  let rejected q =
    match prepare store q with
    | _ -> Alcotest.failf "expected Rejected on %S" q
    | exception Prepared.Rejected _ -> ()
  in
  rejected "1 +";  (* parse error *)
  rejected "count($nope)"  (* static error *)

(* ------------------------------------------------------------------ *)
(* Server: caching and invalidation end-to-end                         *)
(* ------------------------------------------------------------------ *)

let mk_server () = Server.create ()

let send server line =
  let (response, _) = Server.handle_line server line in
  Json.parse response

let ok j = Json.bool_opt (Json.member "ok" j) = Some true
let field name j = Json.member name j
let sfield name j = Option.get (Json.str_opt (field name j))

let load_doc_line =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "load-doc"); ("uri", Json.Str "curriculum.xml");
         ("xml", Json.Str curriculum_xml) ])

let run_line =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "run");
         ("query",
          Json.Str
            ("count(" ^ q1 ^ ")")) ])

(* The ISSUE's acceptance scenario: same query twice hits both caches;
   a load-doc between runs invalidates the result cache but not the
   prepared query; the stats op reports the counters. *)
let test_server_cache_lifecycle () =
  let server = mk_server () in
  checkb "load ok" true (ok (send server load_doc_line));
  let r1 = send server run_line in
  checkb "r1 ok" true (ok r1);
  checks "r1 result" "3" (sfield "result" r1);
  checks "r1 prepared" "miss" (sfield "prepared_cache" r1);
  checks "r1 results" "miss" (sfield "result_cache" r1);
  checks "r1 mode" "delta" (sfield "mode" r1);
  let r2 = send server run_line in
  checks "r2 prepared" "hit" (sfield "prepared_cache" r2);
  checks "r2 results" "hit" (sfield "result_cache" r2);
  checks "r2 result" "3" (sfield "result" r2);
  checki "r2 nodes_fed preserved" 4
    (Option.get (Json.int_opt (field "nodes_fed" r2)));
  (* swap the document: generation bump must invalidate results only *)
  checkb "reload ok" true (ok (send server load_doc_line));
  let r3 = send server run_line in
  checks "r3 prepared survives reload" "hit" (sfield "prepared_cache" r3);
  checks "r3 results invalidated" "miss" (sfield "result_cache" r3);
  let r4 = send server run_line in
  checks "r4 results hit again" "hit" (sfield "result_cache" r4);
  let st = send server {|{"op":"stats"}|} in
  let stats = field "stats" st in
  let cache name counter =
    Option.get (Json.int_opt (field counter (field name stats)))
  in
  checki "prepared hits" 3 (cache "prepared" "hits");
  checki "prepared misses" 1 (cache "prepared" "misses");
  checki "result hits" 2 (cache "results" "hits");
  checki "result misses" 2 (cache "results" "misses");
  checki "generation" 2
    (Option.get (Json.int_opt (field "generation" stats)))

let test_server_engines_agree () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let run engine =
    send server
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "run"); ("engine", Json.Str engine);
              ("query", Json.Str ("count(" ^ q1 ^ ")")) ]))
  in
  let ri = run "interp" in
  let ra = run "algebra" in
  checkb "both ok" true (ok ri && ok ra);
  checks "same result" (sfield "result" ri) (sfield "result" ra);
  (* distinct engine configurations must not share result-cache slots *)
  checks "algebra cold" "miss" (sfield "result_cache" ra)

let test_server_failures_stay_up () =
  let server = mk_server () in
  let err line =
    let r = send server line in
    checkb ("not ok: " ^ line) false (ok r);
    Option.get (Json.str_opt (field "error" r))
  in
  ignore (err "this is not json");
  ignore (err {|{"no_op":1}|});
  ignore (err {|{"op":"frobnicate"}|});
  ignore (err {|{"op":"run"}|});
  ignore (err {|{"op":"run","query":"1 +"}|});
  ignore (err {|{"op":"run","query":"count($nope)"}|});
  ignore (err {|{"op":"load-doc","uri":"x.xml","xml":"<unclosed>"}|});
  ignore (err {|{"op":"load-doc","uri":"x.xml","generate":"nope"}|});
  (* iteration budget: divergent IFP degrades to an error response *)
  let e =
    err {|{"op":"run","query":"with $x seeded by <a/> recurse <b/>","max_iterations":10}|}
  in
  checkb "diverged reported" true
    (String.length e > 0 && String.sub e 0 12 = "IFP diverged");
  (* wall-clock budget: a deadline in the past trips on round one *)
  let e =
    err {|{"op":"run","query":"with $x seeded by <a/> recurse <b/>","timeout_ms":0}|}
  in
  checkb "deadline reported" true
    (String.length e >= 8 && String.sub e 0 8 = "deadline");
  (* and the server still serves *)
  let r = send server {|{"op":"run","query":"1 + 1"}|} in
  checkb "alive" true (ok r);
  checks "alive result" "2" (sfield "result" r)

let test_server_cache_bypass () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "run"); ("cache", Json.Bool false);
           ("query", Json.Str ("count(" ^ q1 ^ ")")) ])
  in
  let r1 = send server line in
  let r2 = send server line in
  checks "bypass never hits" "miss" (sfield "result_cache" r2);
  checks "but prepared does" "hit" (sfield "prepared_cache" r2);
  checkb "results agree" true (sfield "result" r1 = sfield "result" r2)

let test_server_shutdown_and_ids () =
  let server = mk_server () in
  let (resp, stop) = Server.handle_line server {|{"op":"ping","id":42}|} in
  checkb "ping continues" false stop;
  let j = Json.parse resp in
  checki "id echoed" 42 (Option.get (Json.int_opt (field "id" j)));
  let (resp, stop) =
    Server.handle_line server {|{"op":"shutdown","id":"bye"}|}
  in
  checkb "shutdown stops" true stop;
  checks "id echoed on shutdown" "bye" (sfield "id" (Json.parse resp))

let test_server_unload_and_generated () =
  let server = mk_server () in
  let r =
    send server
      {|{"op":"load-doc","uri":"c.xml","generate":"curriculum","size":12,"seed":5}|}
  in
  checkb "generated ok" true (ok r);
  let r = send server {|{"op":"run","query":"count(doc(\"c.xml\")/curriculum/course)"}|} in
  checks "twelve courses" "12" (sfield "result" r);
  let r = send server {|{"op":"unload-doc","uri":"c.xml"}|} in
  checki "unload bumps generation" 2
    (Option.get (Json.int_opt (field "generation" r)));
  let r = send server {|{"op":"run","query":"count(doc(\"c.xml\")/curriculum/course)"}|} in
  checkb "doc gone" false (ok r)

(* The analyzer's divergence verdict gates serving: an un-budgeted
   may-diverge query is refused up front (FQ040) instead of spinning
   against the config backstop; any explicit budget, or a verdict of
   terminates/bounded, lets it through. *)
let test_server_divergence_refusal () =
  let server = mk_server () in
  let diverging = {|with $x seeded by 1 recurse $x * 1|} in
  let r =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "run"); ("query", Json.Str diverging) ]))
  in
  checkb "refused" false (ok r);
  checks "code" "FQ040" (sfield "code" r);
  checks "class" "may-diverge" (sfield "divergence" r);
  let e = sfield "error" r in
  checkb "explains the refusal" true
    (String.length e >= 17 && String.sub e 0 17 = "query may diverge");
  (* the same query with an iteration budget clears the gate: it is
     attempted (and fails downstream on its own merits — atoms have no
     document order), not refused up front *)
  let r =
    send server
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "run"); ("query", Json.Str diverging);
              ("max_iterations", Json.Num 10.) ]))
  in
  checkb "budgeted not refused" true (field "code" r = Json.Null);
  (* a budgeted constructor-divergent query likewise reaches the
     evaluator and trips the iteration budget, not the gate *)
  let r =
    send server
      {|{"op":"run","query":"with $x seeded by <a/> recurse <b/>","max_iterations":10}|}
  in
  let e = sfield "error" r in
  checkb "budget trips, not the gate" true
    (String.length e >= 12 && String.sub e 0 12 = "IFP diverged");
  (* node-only queries are classified terminates: no budget required *)
  ignore (send server load_doc_line);
  let r =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "run"); ("query", Json.Str q1) ]))
  in
  checkb "terminating unbudgeted ok" true (ok r);
  (* refusals are counted *)
  let st = send server {|{"op":"stats"}|} in
  let analysis = field "analysis" (field "stats" st) in
  checki "refused counted" 1
    (Option.get (Json.int_opt (field "refused" analysis)))

let test_server_check_diagnostics () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let check_op q =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "check"); ("query", Json.Str q) ]))
  in
  let r = check_op q1 in
  checkb "check ok" true (ok r);
  checks "divergence surfaced" "terminates" (sfield "divergence" r);
  checkb "node_only surfaced" true
    (Json.bool_opt (field "node_only" r) = Some true);
  (* a clean query still gets the cost analyzer's certified round
     bound as an info diagnostic — and nothing else *)
  checkb "only the certified-bound info on clean query" true
    (match field "diagnostics" r with
    | Json.List [ d ] ->
      Json.str_opt (Json.member "code" d) = Some "FQ053"
      && Json.str_opt (Json.member "severity" d) = Some "info"
    | _ -> false);
  (* a blamed query: FQ030 located, blocking operator surfaced *)
  let r =
    check_op
      ("with $x seeded by doc(\"curriculum.xml\")/curriculum/course \
        recurse ($x/prereq except $x/course)")
  in
  checkb "blamed check ok" true (ok r);
  let codes =
    match field "diagnostics" r with
    | Json.List ds ->
      List.map (fun d -> Option.get (Json.str_opt (Json.member "code" d))) ds
    | _ -> Alcotest.fail "diagnostics must be a list"
  in
  checkb "FQ030 present" true (List.mem "FQ030" codes);
  checkb "FQ031 present" true (List.mem "FQ031" codes);
  checkb "FQ032 present" true (List.mem "FQ032" codes);
  (match field "diagnostics" r with
  | Json.List (d :: _) ->
    checkb "diagnostics located" true
      (Option.get (Json.int_opt (Json.member "line" d)) >= 1)
  | _ -> Alcotest.fail "expected at least one diagnostic");
  checkb "blocking operator surfaced" true
    (Json.str_opt (field "blocking" r) <> None);
  (* rejected queries answer with located structured diagnostics *)
  let r = check_op "1 + count($nope)" in
  checkb "static error not ok" false (ok r);
  (match field "diagnostics" r with
  | Json.List [ d ] ->
    checks "code" "FQ010"
      (Option.get (Json.str_opt (Json.member "code" d)));
    checki "line" 1 (Option.get (Json.int_opt (Json.member "line" d)));
    checki "col" 11 (Option.get (Json.int_opt (Json.member "col" d)))
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  let r = check_op "1 +" in
  checkb "parse error not ok" false (ok r);
  (match field "diagnostics" r with
  | Json.List [ d ] ->
    checks "parse code" "FQ001"
      (Option.get (Json.str_opt (Json.member "code" d)))
  | _ -> Alcotest.fail "expected exactly one parse diagnostic")

(* A cached prepared entry must not serve a stale cost estimate: after
   patch-doc grows the document, the same check (a prepared hit) has
   to report the re-analyzed round bound and costs. *)
let test_server_cost_refresh () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let check_q () =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "check"); ("query", Json.Str q1) ]))
  in
  let before = check_q () in
  let bound r = Option.get (Json.int_opt (field "rounds_bound" r)) in
  let patch =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "patch-doc");
           ("uri", Json.Str "curriculum.xml");
           ("action", Json.Str "insert");
           ("path", Json.Str "/curriculum");
           ("position", Json.Str "into-last");
           ("xml",
            Json.Str "<course code=\"c9\"><prerequisites/></course>") ])
  in
  checkb "patch ok" true (ok (send server patch));
  let after = check_q () in
  checks "still a prepared hit" "hit" (sfield "prepared_cache" after);
  checki "bound tracks the grown document" (bound before + 1) (bound after)

(* ------------------------------------------------------------------ *)
(* On-demand preparation                                               *)
(* ------------------------------------------------------------------ *)

module Analyze = Fixq_analysis.Analyze
module Diag = Fixq_analysis.Diag
module Push = Fixq_algebra.Push
module Estimate = Fixq_cost.Estimate
module Semiring = Fixq_semiring.Semiring
module Queries = Fixq_workloads.Queries

(* Every documented query family plus every example file, over small
   generated documents under the URIs they read. *)
let parity_queries () =
  let dir = "../examples" in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xq")
    |> List.sort compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat dir f)
             In_channel.input_all)
  in
  [ Queries.q1; Queries.q1_variant; Queries.q1_unfolded; Queries.q2;
    Queries.bidder_network; Queries.bidder_network_single "person0";
    Queries.dialogs; Queries.curriculum_check; Queries.hospital;
    Queries.cheapest_prerequisite "c1";
    Queries.weighted_bidder_reach "person0"; Queries.counted_closure "c1";
    Queries.witnessed_closure "c1"; "1 + 1" ]
  @ examples

let load_parity_docs store =
  List.iter
    (fun (uri, kind, size) ->
      Store.load_generated store ~uri ~kind ~size ~seed:3)
    [ ("curriculum.xml", "curriculum", 12.0); ("auction.xml", "xmark", 0.001);
      ("romeo.xml", "play", 1.0); ("hospital.xml", "hospital", 60.0) ]

(* The prepared layer as it was computed eagerly: every pipeline stage
   in order at preparation, and only the estimate re-run after the
   generation moves. *)
type eager = {
  e_source : string;
  e_program : Fixq.Lang.Ast.program;
  e_spans : Parser.Spans.t;
  e_warnings : string list;
  e_analysis : Analyze.t;
  e_ifp_count : int;
  e_syntactic : bool;
  e_plan : (int * Fixq_algebra.Plan.t) option;
  e_push : Push.outcome option;
  e_algebraic : bool option;
  e_sql : (Fixq_algebra.Render_sql.rendered, string) result option;
  e_cost : Estimate.t;
}

(* what [refresh] used to re-run against the current synopses *)
let eager_refresh registry e =
  { e with
    e_cost =
      Estimate.analyze ~registry ~spans:e.e_spans
        ~compiled:(if e.e_ifp_count = 0 then None else Some (e.e_plan <> None))
        ~sql_renderable:(Option.map Result.is_ok e.e_sql)
        ~algebra_delta:(e.e_algebraic = Some true)
        ~interp_delta:e.e_syntactic e.e_program }

let eager_prepare ~registry ~max_iterations source =
  let program, spans = Parser.parse_program_spans source in
  let static = Fixq_lang.Static.check_program program in
  let analysis = Analyze.analyze ~stratified:false ~spans program in
  let ifp_count = List.length analysis.Analyze.ifps in
  let syntactic =
    match analysis.Analyze.ifps with [] -> false | r :: _ -> r.Analyze.syntactic
  in
  let plan =
    if ifp_count = 0 then None
    else Fixq.plan_of_first_ifp ~registry ~max_iterations program
  in
  let push =
    Option.map (fun (fix_id, p) -> Push.check ~stratified:false ~fix_id p) plan
  in
  let sql =
    if ifp_count = 0 then None
    else Fixq.sql_of_first_ifp ~registry ~max_iterations program
  in
  eager_refresh registry
    { e_source = source; e_program = program; e_spans = spans;
      e_warnings =
        List.map
          (fun d -> Format.asprintf "%a" Fixq_lang.Static.pp_diagnostic d)
          static;
      e_analysis = analysis; e_ifp_count = ifp_count; e_syntactic = syntactic;
      e_plan = plan; e_push = push;
      e_algebraic = Option.map (fun o -> o.Push.distributive) push;
      e_sql = sql; e_cost = Estimate.analyze program }

let mode_str = function
  | Fixq.Naive -> "naive"
  | Fixq.Delta -> "delta"
  | Fixq.Auto -> "auto"

let e_interp_mode e =
  if e.e_ifp_count = 0 then Fixq.Naive
  else if e.e_ifp_count > 1 then Fixq.Auto
  else if e.e_syntactic then Fixq.Delta
  else Fixq.Naive

let e_algebra_mode e =
  if e.e_ifp_count = 0 then Fixq.Naive
  else if e.e_ifp_count > 1 then Fixq.Auto
  else
    match e.e_algebraic with
    | Some true -> Fixq.Delta
    | Some false -> Fixq.Naive
    | None -> Fixq.Auto

let diag_json (d : Diag.t) =
  let line, col = Option.value ~default:(0, 0) d.Diag.loc in
  Json.Obj
    [ ("severity", Json.Str (Diag.severity_string d.Diag.severity));
      ("code", Json.Str d.Diag.code); ("line", Json.of_int line);
      ("col", Json.of_int col); ("context", Json.Str d.Diag.context);
      ("message", Json.Str d.Diag.message) ]

let ok_obj fields = Json.Obj (("ok", Json.Bool true) :: fields)

let rounds_json (c : Estimate.t) =
  match c.Estimate.rounds_bound with Some b -> Json.of_int b | None -> Json.Null

let expected_check e ~cache =
  let first =
    match e.e_analysis.Analyze.ifps with r :: _ -> Some r | [] -> None
  in
  let semiring = Option.bind first (fun r -> r.Analyze.semiring) in
  let push_blocks =
    match (e.e_push, first) with
    | Some o, Some r ->
      Option.to_list (Analyze.push_block_diag ~spans:e.e_spans r o)
    | _ -> []
  in
  let diagnostics =
    List.stable_sort Diag.compare
      (e.e_analysis.Analyze.diagnostics @ push_blocks
      @ e.e_cost.Estimate.diagnostics)
  in
  ok_obj
    [ ("ifp_count", Json.of_int e.e_ifp_count);
      ("syntactic", Json.Bool e.e_syntactic);
      ("algebraic", Json.of_bool_opt e.e_algebraic);
      ("interp_mode", Json.Str (mode_str (e_interp_mode e)));
      ("algebra_mode", Json.Str (mode_str (e_algebra_mode e)));
      ("stratified", Json.Bool false);
      ("warnings", Json.List (List.map (fun w -> Json.Str w) e.e_warnings));
      ("diagnostics", Json.List (List.map diag_json diagnostics));
      ("divergence",
       match first with
       | Some r -> Json.Str (Analyze.divergence_string r.Analyze.divergence)
       | None -> Json.Null);
      ("semiring",
       match semiring with
       | Some k -> Json.Str (Semiring.kind_to_string k)
       | None -> Json.Null);
      ("convergence",
       match semiring with
       | Some k -> Json.Str (Semiring.stability_string (Semiring.stability k))
       | None -> Json.Null);
      ("node_only",
       Json.of_bool_opt
         (Option.map
            (fun r -> r.Analyze.node_only_seed && r.Analyze.node_only_body)
            first));
      ("ivm",
       Json.Str
         (Analyze.ivm_string
            (Analyze.ivm_eligibility ~stratified:false e.e_program)));
      ("blocking",
       match e.e_push with
       | Some { Push.blocking = Some b; _ } -> Json.Str b
       | _ -> Json.Null);
      ("sql_renderable", Json.of_bool_opt (Option.map Result.is_ok e.e_sql));
      ("sql_reason",
       match e.e_sql with Some (Error r) -> Json.Str r | _ -> Json.Null);
      ("rounds_bound", rounds_json e.e_cost);
      ("bound_reason", Json.Str e.e_cost.Estimate.bound_reason);
      ("estimated_cost",
       Json.Obj
         (List.map
            (fun en ->
              ( en.Estimate.eng_name,
                Json.Num (Float.round en.Estimate.eng_cost) ))
            e.e_cost.Estimate.engines));
      ("chosen_engine", Json.Str e.e_cost.Estimate.chosen);
      ("prepared_cache", Json.Str cache) ]

let expected_explain e ~cache =
  let c = e.e_cost in
  ok_obj
    [ ("prepared_cache", Json.Str cache);
      ("work", Json.Num (Float.round c.Estimate.work));
      ("result_card",
       Json.Str (Estimate.interval_string c.Estimate.result_card));
      ("rounds_bound", rounds_json c);
      ("bound_reason", Json.Str c.Estimate.bound_reason);
      ("engines",
       Json.List
         (List.map
            (fun en ->
              Json.Obj
                [ ("name", Json.Str en.Estimate.eng_name);
                  ("cost", Json.Num (Float.round en.Estimate.eng_cost));
                  ("native", Json.Bool en.Estimate.eng_native);
                  ("note", Json.Str en.Estimate.eng_note) ])
            c.Estimate.engines));
      ("chosen", Json.Str c.Estimate.chosen);
      ("choice_reason", Json.Str c.Estimate.choice_reason);
      ("operators",
       Json.List
         (List.map
            (fun r ->
              Json.Obj
                ([ ("desc", Json.Str r.Estimate.op_desc);
                   ("depth", Json.of_int r.Estimate.op_depth);
                   ("card",
                    Json.Str (Estimate.interval_string r.Estimate.op_card)) ]
                @ (match r.Estimate.op_loc with
                  | Some (l, col) ->
                    [ ("line", Json.of_int l); ("col", Json.of_int col) ]
                  | None -> [])
                @
                match r.Estimate.op_note with
                | Some n -> [ ("note", Json.Str n) ]
                | None -> []))
            c.Estimate.rows));
      ("diagnostics", Json.List (List.map diag_json c.Estimate.diagnostics));
      ("text", Json.Str (Estimate.to_text c)) ]

let expected_plan registry e ~cache =
  match e.e_plan with
  | None ->
    Json.Obj
      [ ("ok", Json.Bool false);
        ("error",
         Json.Str "no compilable IFP body found (interpreter-only query)") ]
  | Some (_, plan) ->
    let cards = Estimate.plan_cards ~registry plan in
    let annot p = Some ("card " ^ Estimate.interval_string (cards p)) in
    ok_obj
      [ ("distributive", Json.of_bool_opt e.e_algebraic);
        ("prepared_cache", Json.Str cache);
        ("plan",
         Json.Str (Fixq_algebra.Render.to_ascii_annotated ~annot plan)) ]

let expected_prepare e ~cache =
  ok_obj
    [ ("prepared_cache", Json.Str cache);
      ("hash", Json.Str (Prepared.hash_source e.e_source));
      ("ifp_count", Json.of_int e.e_ifp_count);
      ("interp_mode", Json.Str (mode_str (e_interp_mode e)));
      ("algebra_mode", Json.Str (mode_str (e_algebra_mode e)));
      ("has_plan", Json.Bool (e.e_plan <> None)) ]

let without name = function
  | Json.Obj fields -> Json.Obj (List.remove_assoc name fields)
  | j -> j

(* Plan captures draw relation names [R<n>] from a process-wide counter,
   so two captures of one body differ only in those numbers: rename them
   by first occurrence before comparing. *)
let canonical_relations s =
  let b = Buffer.create (String.length s) in
  let names = Hashtbl.create 8 in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i =
    if i < n then
      if s.[i] = 'R' && i + 1 < n && is_digit s.[i + 1] then begin
        let j = ref (i + 1) in
        while !j < n && is_digit s.[!j] do incr j done;
        let name = String.sub s i (!j - i) in
        let k =
          match Hashtbl.find_opt names name with
          | Some k -> k
          | None ->
            let k = Hashtbl.length names in
            Hashtbl.add names name k;
            k
        in
        Buffer.add_string b (Printf.sprintf "R#%d" k);
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let op_line op q =
  Json.to_string (Json.Obj [ ("op", Json.Str op); ("query", Json.Str q) ])

(* check/explain/plan/prepare answered from the on-demand memos are the
   bytes the eager pipeline produced — before a patch-doc, and after it
   moved the generation (prepared hits, refreshed estimates). *)
let test_prepared_parity_with_eager () =
  let server = mk_server () in
  let store = Server.store server in
  let registry = Store.registry store in
  load_parity_docs store;
  let max_iterations = (Server.config server).Server.max_iterations in
  let queries = parity_queries () in
  let compare_ops ~cache_first e =
    List.iteri
      (fun i (op, expected) ->
        let cache = if i = 0 then cache_first else "hit" in
        let got = send server (op_line op e.e_source) in
        checks
          (Printf.sprintf "%s parity: %s" op
             (String.sub e.e_source 0 (min 40 (String.length e.e_source))))
          (canonical_relations (Json.to_string (expected ~cache)))
          (canonical_relations (Json.to_string (without "prepare_ms" got))))
      [ ("check", expected_check e); ("explain", expected_explain e);
        ("plan", expected_plan registry e); ("prepare", expected_prepare e) ]
  in
  let eagers =
    List.map
      (fun q ->
        let e = eager_prepare ~registry ~max_iterations q in
        compare_ops ~cache_first:"miss" e;
        e)
      queries
  in
  let gen = Store.generation store in
  checkb "patch ok" true
    (ok
       (send server
          (Json.to_string
             (Json.Obj
                [ ("op", Json.Str "patch-doc");
                  ("uri", Json.Str "curriculum.xml");
                  ("action", Json.Str "insert");
                  ("path", Json.Str "/curriculum");
                  ("xml", Json.Str "<course code=\"c99\"/>") ]))));
  checkb "generation moved" true (Store.generation store > gen);
  List.iter
    (fun e -> compare_ops ~cache_first:"hit" (eager_refresh registry e))
    eagers

let strip_varying j =
  List.fold_left (fun j k -> without k j) j
    [ "wall_ms"; "prepared_cache"; "result_cache" ]

(* First forcings race: threads asking for the compiled part and the
   estimate of one fresh text at the same time must all get them, with
   the bytes a single-threaded server answers. The let-bound count makes
   the plan capture slow enough to be preempted mid-way. *)
let test_prepared_concurrent_forcing () =
  let q =
    "let $n := count(for $i in 1 to 200000 return $i * 2) return count(" ^ q1
    ^ ")"
  in
  let lines =
    [ Json.to_string
        (Json.Obj
           [ ("op", Json.Str "run"); ("query", Json.Str q);
             ("engine", Json.Str "algebra") ]);
      Json.to_string
        (Json.Obj
           [ ("op", Json.Str "run"); ("query", Json.Str q);
             ("engine", Json.Str "auto") ]);
      op_line "check" q ]
  in
  let answer server line =
    strip_varying (Json.parse (fst (Server.handle_line server line)))
  in
  let sequential = mk_server () in
  ignore (send sequential load_doc_line);
  let expected =
    List.map (fun l -> Json.to_string (answer sequential l)) lines
  in
  let server = mk_server () in
  ignore (send server load_doc_line);
  let captures = Prepared.plan_captures () in
  let threads = 6 in
  let results = Array.make threads [] in
  let failures = Atomic.make 0 in
  let worker i =
    (* each thread starts at a different request kind *)
    let k = i mod List.length lines in
    let order =
      List.filteri (fun j _ -> j >= k) lines
      @ List.filteri (fun j _ -> j < k) lines
    in
    try
      results.(i) <-
        List.map (fun l -> (l, Json.to_string (answer server l))) order
    with _ -> Atomic.incr failures
  in
  List.iter Thread.join (List.init threads (Thread.create worker));
  checki "no thread raised" 0 (Atomic.get failures);
  checki "one plan capture for the entry" 1
    (Prepared.plan_captures () - captures);
  Array.iter
    (List.iter (fun (l, got) ->
         checks "same bytes as sequential"
           (List.assoc l (List.combine lines expected)) got))
    results;
  checkb "answers ok" true
    (List.for_all
       (fun s -> Json.bool_opt (Json.member "ok" (Json.parse s)) = Some true)
       expected)

(* Refreshing across many generations must not chain superseded
   records: an entry refreshed 1000 times stays the size of a fresh
   one. *)
let test_prepared_refresh_retention () =
  let store = make_store () in
  let p = ref (prepare store q1) in
  ignore (Prepared.cost !p);
  for i = 1 to 1000 do
    Store.load_xml store ~uri:"bump.xml" (Printf.sprintf "<b n=\"%d\"/>" i);
    p := Prepared.refresh ~store !p;
    ignore (Prepared.cost !p)
  done;
  checki "generation tracked" (Store.generation store) !p.Prepared.generation;
  let fresh = prepare store q1 in
  ignore (Prepared.cost fresh);
  let words x = Obj.reachable_words (Obj.repr x) in
  let w = words !p and w0 = words fresh in
  if w > 2 * w0 then
    Alcotest.failf "refreshed entry reaches %d words, fresh one %d" w w0

(* The algebra engine compiles each IFP site once per prepared entry and
   keeps no plan-keyed state between runs: 200 cache-bypassing algebra
   runs of the bidder network compile its site exactly once, and the
   live heap after the first run stays flat. *)
let test_algebra_compile_once_retention () =
  let server = mk_server () in
  checkb "generated ok" true
    (ok
       (send server
          {|{"op":"load-doc","uri":"auction.xml","generate":"xmark","size":0.001,"seed":3}|}));
  let run_line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "run"); ("engine", Json.Str "algebra");
           ("cache", Json.Bool false);
           ("query", Json.Str Queries.bidder_network) ])
  in
  let compiles () =
    Option.get
      (Json.int_opt
         (field "algebra_compiles" (field "stats" (send server {|{"op":"stats"}|}))))
  in
  let c0 = compiles () in
  let first = send server run_line in
  checkb "first run ok" true (ok first);
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let w0 = live () in
  for _ = 1 to 200 do
    let r = send server run_line in
    if not (ok r) then Alcotest.fail "algebra run failed";
    checks "same result" (sfield "result" first) (sfield "result" r)
  done;
  let grown = (live () - w0) * (Sys.word_size / 8) in
  checki "one compile for 201 runs" 1 (compiles () - c0);
  if grown >= 2 * 1024 * 1024 then
    Alcotest.failf "live heap grew by %d bytes over 200 algebra runs" grown

let () =
  Alcotest.run "service"
    [ ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "unicode" `Quick test_json_unicode;
         Alcotest.test_case "errors" `Quick test_json_errors;
         Alcotest.test_case "members" `Quick test_json_members ]);
      ("lru",
       [ Alcotest.test_case "eviction" `Quick test_lru_eviction;
         Alcotest.test_case "promotion" `Quick test_lru_promotion;
         Alcotest.test_case "counters" `Quick test_lru_counters ]);
      ("registry",
       [ Alcotest.test_case "generation" `Quick test_registry_generation ]);
      ("prepared",
       [ Alcotest.test_case "modes" `Quick test_prepared_modes;
         Alcotest.test_case "parity with check" `Quick
           test_prepared_parity_with_check;
         Alcotest.test_case "multi-ifp keeps auto" `Quick
           test_prepared_multi_ifp_keeps_auto;
         Alcotest.test_case "rejects" `Quick test_prepared_rejects;
         Alcotest.test_case "parity with eager pipeline" `Quick
           test_prepared_parity_with_eager;
         Alcotest.test_case "concurrent forcing" `Quick
           test_prepared_concurrent_forcing;
         Alcotest.test_case "refresh retention" `Quick
           test_prepared_refresh_retention ]);
      ("server",
       [ Alcotest.test_case "cache lifecycle" `Quick
           test_server_cache_lifecycle;
         Alcotest.test_case "engines agree" `Quick test_server_engines_agree;
         Alcotest.test_case "failures stay up" `Quick
           test_server_failures_stay_up;
         Alcotest.test_case "cache bypass" `Quick test_server_cache_bypass;
         Alcotest.test_case "shutdown and ids" `Quick
           test_server_shutdown_and_ids;
         Alcotest.test_case "unload and generated docs" `Quick
           test_server_unload_and_generated;
         Alcotest.test_case "divergence refusal" `Quick
           test_server_divergence_refusal;
         Alcotest.test_case "check diagnostics" `Quick
           test_server_check_diagnostics;
         Alcotest.test_case "cost refresh after patch" `Quick
           test_server_cost_refresh;
         Alcotest.test_case "algebra compile once, flat heap" `Quick
           test_algebra_compile_once_retention ]) ]
