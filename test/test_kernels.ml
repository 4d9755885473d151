(* Property tests for the PR-3 set kernels: the merge-based
   ddo/union/except/intersect in Item, the incremental fixpoint
   Accumulator, and the name-indexed descendant steps in Axis — each
   checked against a straightforward list-based reference on randomized
   node multisets drawn from several documents. Plus regression tests
   for the Atom_set set-equality path (quadratic before PR 3), and
   parity of the interpreter's per-run value index for [step[K = P]]
   filters with the plain predicate scan. *)

module Node = Fixq_xdm.Node
module Atom = Fixq_xdm.Atom
module Item = Fixq_xdm.Item
module Axis = Fixq_xdm.Axis
module Accumulator = Fixq_xdm.Accumulator
module Counters = Fixq_xdm.Counters

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fixtures: a pool of nodes spanning three documents                  *)
(* ------------------------------------------------------------------ *)

let docs =
  (* distinct shapes, shared element names, text/comment nodes mixed
     in — the kernels must only ever see ids, never care about shape *)
  let leaf n = Node.E ("leaf", [ ("n", string_of_int n) ], [ Node.T "x" ]) in
  [ Node.of_spec
      (Node.E
         ( "r", [],
           [ Node.E ("a", [], [ leaf 1; Node.E ("b", [], [ leaf 2 ]) ]);
             Node.E ("b", [], [ leaf 3; Node.C "note"; leaf 4 ]);
             Node.T "tail" ] ));
    Node.of_spec
      (Node.E
         ( "r", [],
           List.init 10 (fun i ->
               Node.E
                 ( (if i mod 2 = 0 then "a" else "b"), [],
                   [ leaf (10 + i) ] )) ));
    Node.of_spec (Node.E ("a", [], [ Node.E ("a", [], [ leaf 100 ]) ])) ]

let pool =
  let out = ref [] in
  List.iter (fun d -> Node.iter_subtree (fun n -> out := n :: !out) d) docs;
  Array.of_list (List.rev !out)

let node_of_idx i = pool.(i mod Array.length pool)
let seq_of_idxs l = List.map (fun i -> Item.node (node_of_idx i)) l

let ids_of_seq s =
  List.map
    (function Item.N n -> n.Node.id | Item.A _ -> Alcotest.fail "atom")
    s

(* ------------------------------------------------------------------ *)
(* List-based reference implementations                                *)
(* ------------------------------------------------------------------ *)

let ref_ddo ns = List.sort_uniq Node.compare_doc_order ns
let mem n l = List.exists (fun m -> Node.compare_doc_order n m = 0) l
let ref_union a b = ref_ddo (a @ b)
let ref_except a b = List.filter (fun n -> not (mem n b)) (ref_ddo a)
let ref_intersect a b = List.filter (fun n -> mem n b) (ref_ddo a)
let ids = List.map (fun n -> n.Node.id)

let nodes_of_idxs l = List.map node_of_idx l

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let idx_gen = QCheck2.Gen.(list_size (int_bound 40) (int_bound 200))

let prop_kernels_match_reference =
  QCheck2.Test.make ~count:300 ~name:"merge kernels = list reference"
    QCheck2.Gen.(pair idx_gen idx_gen)
    (fun (ia, ib) ->
      let na = nodes_of_idxs ia and nb = nodes_of_idxs ib in
      let sa = seq_of_idxs ia and sb = seq_of_idxs ib in
      ids_of_seq (Item.ddo sa) = ids (ref_ddo na)
      && ids_of_seq (Item.union sa sb) = ids (ref_union na nb)
      && ids_of_seq (Item.except sa sb) = ids (ref_except na nb)
      && ids_of_seq (Item.intersect sa sb) = ids (ref_intersect na nb))

let prop_doc_order =
  QCheck2.Test.make ~count:200 ~name:"kernel outputs strictly doc-ordered"
    QCheck2.Gen.(pair idx_gen idx_gen)
    (fun (ia, ib) ->
      let strictly_sorted s =
        let rec go = function
          | Item.N x :: (Item.N y :: _ as rest) ->
            Node.compare_doc_order x y < 0 && go rest
          | [ Item.N _ ] | [] -> true
          | _ -> false
        in
        go s
      in
      let sa = seq_of_idxs ia and sb = seq_of_idxs ib in
      List.for_all strictly_sorted
        [ Item.ddo sa; Item.union sa sb; Item.except sa sb;
          Item.intersect sa sb ])

let prop_accumulator =
  (* a run of absorb batches behaves like folding the reference union,
     and each round's fresh delta is exactly what the reference except
     would produce *)
  QCheck2.Test.make ~count:200 ~name:"accumulator = fold of union"
    QCheck2.Gen.(list_size (int_bound 8) idx_gen)
    (fun batches ->
      let acc = Accumulator.create () in
      let reference = ref [] in
      List.for_all
        (fun batch ->
          let nodes = nodes_of_idxs batch in
          let (fresh, fresh_count, produced) =
            Accumulator.absorb acc ~who:"test" (seq_of_idxs batch)
          in
          let expect_fresh = ref_except nodes !reference in
          reference := ref_union !reference nodes;
          ids_of_seq fresh = ids expect_fresh
          && fresh_count = List.length expect_fresh
          && produced = List.length batch
          && Accumulator.size acc = List.length !reference
          && ids_of_seq (Accumulator.to_seq acc) = ids !reference
          && List.for_all (fun n -> Accumulator.mem acc n) !reference)
        batches)

let name_gen = QCheck2.Gen.oneofl [ "a"; "b"; "leaf"; "r"; "*"; "zzz" ]

let prop_indexed_step =
  (* Axis.step answers descendant name tests from the per-document name
     index with subtree pruning; Axis.nodes is the plain unindexed
     traversal — they must agree from every context node *)
  QCheck2.Test.make ~count:300 ~name:"indexed descendant step = scan"
    QCheck2.Gen.(pair (int_bound 200) name_gen)
    (fun (i, nm) ->
      let n = node_of_idx i in
      let reference axis =
        List.filter (Axis.matches axis (Axis.Name nm)) (Axis.nodes axis n)
      in
      ids (Axis.step Axis.Descendant (Axis.Name nm) n)
      = ids (reference Axis.Descendant)
      && ids (Axis.step Axis.Descendant_or_self (Axis.Name nm) n)
         = ids (reference Axis.Descendant_or_self)
      && ids (Axis.step Axis.Child (Axis.Name nm) n)
         = ids (reference Axis.Child))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let raises_type_error who f =
  try
    ignore (f ());
    false
  with Atom.Type_error msg -> contains msg who

let test_atom_type_errors () =
  let atom = [ Item.atom (Atom.Int 1) ] in
  let nodes = seq_of_idxs [ 0; 1 ] in
  check "ddo on atoms" true
    (raises_type_error "fs:ddo" (fun () -> Item.ddo atom));
  check "union on atoms" true
    (raises_type_error "union" (fun () -> Item.union nodes atom));
  check "except on atoms" true
    (raises_type_error "except" (fun () -> Item.except atom nodes));
  check "intersect on atoms" true
    (raises_type_error "intersect" (fun () -> Item.intersect nodes atom));
  check "accumulator on atoms" true
    (raises_type_error "fixpoint" (fun () ->
         Accumulator.absorb (Accumulator.create ()) ~who:"fixpoint" atom))

let test_index_counters () =
  (* the descendant name step must actually hit the index *)
  let root = List.hd docs in
  let before = Counters.snapshot () in
  let hits = Axis.step Axis.Descendant (Axis.Name "leaf") root in
  let d = Counters.diff (Counters.snapshot ()) before in
  check "found leaves" true (List.length hits > 0);
  check "index used" true (d.Counters.index_steps >= 1);
  check "index produced the nodes" true
    (d.Counters.index_nodes >= List.length hits)

let shuffle st arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let test_atom_set_scale () =
  (* regression: set_equal on 10k-atom sequences was quadratic
     (pairwise membership); the keyed path must handle this instantly *)
  let st = Random.State.make [| 42 |] in
  let mk st =
    Array.to_list
      (shuffle st (Array.init 10_000 (fun i -> Item.atom (Atom.Str (Printf.sprintf "k%d" i)))))
  in
  let a = mk st and b = mk st in
  let t0 = Unix.gettimeofday () in
  check "10k sets equal" true (Item.set_equal a b);
  check "10k sets differ" false
    (Item.set_equal a (Item.atom (Atom.Str "extra") :: b));
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  check ("10k set_equal under 2s, took " ^ string_of_float ms) true (ms < 2000.0)

let test_atom_set_crossover () =
  (* numeric strings mixed with numbers fall back to the (sound)
     pairwise path: equal_value is not transitive there *)
  let s l = List.map Item.atom l in
  check "1 = \"01\"" true
    (Item.set_equal (s [ Atom.Int 1 ]) (s [ Atom.Str "01" ]));
  check "\"1\" <> \"01\"" false
    (Item.set_equal (s [ Atom.Str "1" ]) (s [ Atom.Str "01" ]));
  check "dup collapse" true
    (Item.set_equal
       (s [ Atom.Int 2; Atom.Int 2; Atom.Str "x" ])
       (s [ Atom.Str "x"; Atom.Int 2 ]))

(* ------------------------------------------------------------------ *)
(* Value index for [step[K = P]] filters                               *)
(* ------------------------------------------------------------------ *)

module Eval = Fixq_lang.Eval
module Doc_registry = Fixq_xdm.Doc_registry
module Serializer = Fixq_xdm.Serializer
module W = Fixq_workloads

(* String values that are equal as numbers but not as strings, the
   empty string, and a value no number converts from. *)
let key_values = [| "1"; "01"; "1.0"; ""; " 1"; "a" |]

let vi_keys =
  [| "@k"; "v"; "."; "@n"; "number(@k)";
     "string(@k cast as xs:integer?)" |]

let vi_probes =
  [| {|"1"|}; {|"01"|}; {|""|}; "1"; "1.0"; "()"; {|("1", "a")|}; "$p" |]

let vi_paths = [| {|doc("t.xml")/r/e|}; {|doc("t.xml")//e|} |]

(* Elements [e] with a position [@n], an optional key attribute [@k]
   and any number of [v] children (an empty [v] keys as ""). *)
let vi_doc elems =
  Node.of_spec
    (Node.E
       ( "r", [],
         List.mapi
           (fun i (k, vs) ->
             Node.E
               ( "e",
                 ("n", string_of_int i)
                 :: (match k with Some k -> [ ("k", k) ] | None -> []),
                 List.map
                   (fun v -> Node.E ("v", [], if v = "" then [] else [ Node.T v ]))
                   vs ))
           elems ))

(* Every filter runs 15 times at one context node: once by the scan,
   then from the index. The [count] sees the filter's own result, which
   no path step sorts or deduplicates. *)
let vi_query ~path ~pred =
  Printf.sprintf
    {|for $i in 1 to 3 return
      for $p in ("1", "01", "1.0", "", "a") return
        (string-join(for $e in %s[%s] return string($e/@n), ","),
         doc("t.xml")/r/count(e[%s]))|}
    path pred pred

let vi_outcome registry q =
  match Eval.run_string (Eval.create ~registry ()) q with
  | r -> Ok (Serializer.seq_to_string r)
  | exception (Eval.Error m | Fixq_lang.Builtins.Error m | Atom.Type_error m)
    ->
    Error m

let vi_case_gen =
  let open QCheck2.Gen in
  let value = oneofa key_values in
  let elem = pair (opt value) (list_size (int_bound 3) value) in
  tup5
    (list_size (int_bound 6) elem)
    (int_bound (Array.length vi_keys - 1))
    (int_bound (Array.length vi_probes - 1))
    bool
    (int_bound (Array.length vi_paths - 1))

let vi_print (elems, ki, pi, flip, path) =
  Printf.sprintf "key %s, probe %s, flip %b, path %s, doc %s" vi_keys.(ki)
    vi_probes.(pi) flip vi_paths.(path)
    (Serializer.seq_to_string [ Item.node (vi_doc elems) ])

let prop_value_index_parity =
  QCheck2.Test.make ~count:300 ~name:"value index = predicate scan"
    ~print:vi_print vi_case_gen
    (fun (elems, ki, pi, flip, path) ->
      let registry = Doc_registry.create () in
      Doc_registry.register ~registry "t.xml" (vi_doc elems);
      let k = vi_keys.(ki) and p = vi_probes.(pi) in
      let cmp = if flip then p ^ " = " ^ k else k ^ " = " ^ p in
      let path = vi_paths.(path) in
      (* [(K = P) and true()] is not an equality predicate: the scan *)
      vi_outcome registry (vi_query ~path ~pred:cmp)
      = vi_outcome registry
          (vi_query ~path ~pred:(Printf.sprintf "(%s) and true()" cmp)))

let builds () = (Counters.snapshot ()).Counters.value_index_builds

let parse_main src = (Fixq_lang.Parser.parse_program src).Fixq_lang.Ast.main

(* The index builds on a filter's second evaluation, so a key that
   fails there failed the first time too — unless the registry moved
   in between. The build must then leave the site to the scan, whose
   first error (the probe's, at the first candidate) is the one to
   report, not the key's at the second candidate. *)
let test_value_index_build_error () =
  let registry = Doc_registry.create () in
  Doc_registry.register ~registry "t.xml"
    (Node.of_spec
       (Node.E
          ( "r", [],
            [ Node.E ("e", [ ("k", "1") ], []);
              Node.E ("e", [ ("k", "x") ], []) ] )));
  Doc_registry.register ~registry "aux.xml"
    (Node.of_spec (Node.E ("a", [], [ Node.T "x" ])));
  let src =
    {|doc("t.xml")/r/e[(if (@k = "x") then string(doc("aux.xml")/a)
                      else string(@k))
                     = string($s cast as xs:integer)]|}
  in
  let filter = parse_main src in
  let ev = Eval.create ~registry () in
  let eval s =
    match Eval.eval_expr ev ~vars:[ ("s", [ Item.A (Atom.Str s) ]) ] filter with
    | r -> Ok (List.length r)
    | exception (Eval.Error m | Fixq_lang.Builtins.Error m | Atom.Type_error m)
      ->
      Error m
  in
  check "first evaluation scans" true (eval "1" = Ok 1);
  Doc_registry.unregister ~registry "aux.xml";
  let before = builds () in
  let got = eval "z" in
  Alcotest.(check int) "no index built" 0 (builds () - before);
  let scan =
    match
      Eval.eval_expr (Eval.create ~registry ())
        ~vars:[ ("s", [ Item.A (Atom.Str "z") ]) ]
        filter
    with
    | _ -> Ok 0
    | exception Atom.Type_error m -> Error m
  in
  check "the scan's error" true (got = scan);
  check "the probe's message" true
    (got = Error {|cannot convert "z" to a number|})

let test_value_index_single_use () =
  let registry = Doc_registry.create () in
  ignore (W.Curriculum.load ~registry { W.Curriculum.default with courses = 60 });
  let before = builds () in
  ignore (Eval.run_string (Eval.create ~registry ()) W.Queries.q1);
  Alcotest.(check int) "Q1's seed filter builds nothing" 0 (builds () - before)

let test_value_index_bidder () =
  let registry = Doc_registry.create () in
  ignore (W.Xmark.load ~registry { W.Xmark.default with scale = 0.002 });
  let before = Counters.snapshot () in
  ignore (Eval.run_string (Eval.create ~registry ()) W.Queries.bidder_network);
  let k = Counters.diff (Counters.snapshot ()) before in
  check "bidder_network builds an index" true (k.Counters.value_index_builds >= 1);
  check "… and answers from it" true (k.Counters.value_index_probes > 0)

(* ------------------------------------------------------------------ *)

let qc = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kernels"
    [ ( "properties",
        qc
          [ prop_kernels_match_reference;
            prop_doc_order;
            prop_accumulator;
            prop_indexed_step;
            prop_value_index_parity ] );
      ( "units",
        [ Alcotest.test_case "atom type errors" `Quick test_atom_type_errors;
          Alcotest.test_case "index counters" `Quick test_index_counters;
          Alcotest.test_case "atom set 10k regression" `Quick
            test_atom_set_scale;
          Alcotest.test_case "atom set numeric crossover" `Quick
            test_atom_set_crossover ] );
      ( "value index",
        [ Alcotest.test_case "build error keeps the scan's error" `Quick
            test_value_index_build_error;
          Alcotest.test_case "single-use filter builds none" `Quick
            test_value_index_single_use;
          Alcotest.test_case "bidder_network builds" `Quick
            test_value_index_bidder ] ) ]
