module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Algebra_ir = Fixq_algebra
module Store = Fixq_store

module Item = Xdm.Item
module Eval = Lang.Eval
module Stats = Lang.Stats
module Compile = Algebra_ir.Compile
module Plan = Algebra_ir.Plan
module Plan_eval = Algebra_ir.Plan_eval
module Push = Algebra_ir.Push
module Optimize = Algebra_ir.Optimize
module Render_sql = Algebra_ir.Render_sql
module Sqlrec = Fixq_sqlrec.Sqlrec

type mode = Naive | Delta | Auto

type engine = Interpreter of mode | Algebra of mode | Sql of mode

type report = {
  result : Item.seq;
  engine : engine;
  used_delta : bool option;
  nodes_fed : int;
  depth : int;
  wall_ms : float;
  fallbacks : string list;
  semiring : string option;
  annotations : (string * string) list;
}

exception Error of string

(* Raised (from the stats iteration hook) when a per-request wall-clock
   deadline passes mid-fixpoint; converted to [Error] in run_program. *)
exception Deadline_exceeded

let strategy_of_mode = function
  | Naive -> Eval.Naive
  | Delta -> Eval.Delta
  | Auto -> Eval.Auto

let now_ms () = Unix.gettimeofday () *. 1000.0

(* The hybrid algebraic engine: the interpreter drives the query, every
   IFP site is compiled once — compile, optimize, ∪ push-up verdict and
   lowering to a slot program ({!Plan_eval.lower}), with rebindable
   leaves for the scope variables — and executed as µ/µ∆ over that
   program, so loop-invariant relations persist across the many
   fixpoints of a query like the bidder network. *)
module Expr_tbl = Hashtbl.Make (struct
  type t = Lang.Ast.expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type compiled_site = {
  cs : Compile.compiled;
  used_refs : (string * int) list;
      (** binding refs that actually occur in the plan *)
  push_distributive : bool;
  program : Plan_eval.program;
}

(* A site is a body expression of the program plus what its compilation
   read besides: the names in scope and the stratified flag. Entries are
   immutable and hold no document data, so one table can serve every run
   of a program. *)
type site_entry = {
  body : Lang.Ast.expr;
  names : string list;
  site_stratified : bool;
  outcome : (compiled_site, string) result;
      (** [Error reason]: outside the compilable subset *)
}

(* Reads are lock-free; a miss compiles under the lock, re-checking
   first, and publishes the extended list — so concurrent runs of one
   prepared query compile each site exactly once. *)
type sites = { entries : site_entry list Atomic.t; lock : Mutex.t }

let create_sites () = { entries = Atomic.make []; lock = Mutex.create () }

let compiles = Atomic.make 0

let algebra_compiles () = Atomic.get compiles

let compile_site ~functions ~stratified ~names (site : Eval.ifp_site) :
    (compiled_site, string) result =
  Atomic.incr compiles;
  match
    Compile.body ~functions ~recursion_var:site.Eval.ifp_var ~bindings:names
      site.Eval.ifp_body
  with
  | exception Compile.Unsupported reason -> Error reason
  | cs ->
    let cs = { cs with Compile.body = Optimize.optimize cs.Compile.body } in
    let push_distributive =
      (Push.check ~stratified ~fix_id:cs.Compile.fix_id cs.Compile.body)
        .Push.distributive
    in
    let program = Plan_eval.lower cs.Compile.body in
    let used_refs =
      List.filter
        (fun (_, id) -> Plan_eval.mentions program id)
        cs.Compile.binding_refs
    in
    Ok { cs; used_refs; push_distributive; program }

let find_site sites ~stratified ~names body =
  List.find_opt
    (fun e ->
      e.body == body && e.site_stratified = stratified && e.names = names)
    (Atomic.get sites.entries)

let site_outcome sites ~functions ~stratified (site : Eval.ifp_site) =
  let names =
    List.map fst site.Eval.ifp_bindings
    @ if site.Eval.ifp_context <> None then [ "." ] else []
  in
  let body = site.Eval.ifp_body in
  match find_site sites ~stratified ~names body with
  | Some e -> e.outcome
  | None ->
    Mutex.protect sites.lock (fun () ->
        match find_site sites ~stratified ~names body with
        | Some e -> e.outcome
        | None ->
          let outcome = compile_site ~functions ~stratified ~names site in
          Atomic.set sites.entries
            ({ body; names; site_stratified = stratified; outcome }
            :: Atomic.get sites.entries);
          outcome)

(* What one run keeps per compiled site: the slot memos, and the binding
   values the run slots were computed for (compared physically). *)
type site_run = {
  memo : Plan_eval.memo;
  mutable bound : Xdm.Item.seq list option;
}

let install_algebra_handler ~sites ~registry ~max_iterations ~stratified ~mode
    ~fallbacks ~used_delta ev =
  let pe =
    Plan_eval.create ~registry ~max_iterations ~stats:(Eval.stats ev) ()
  in
  let runs : (compiled_site * site_run) list ref = ref [] in
  (* fallback reasons already reported by this run *)
  let reported : unit Expr_tbl.t = Expr_tbl.create 8 in
  let fall_back body reason =
    if not (Expr_tbl.mem reported body) then begin
      fallbacks := reason :: !fallbacks;
      Expr_tbl.replace reported body ()
    end;
    None
  in
  Eval.set_ifp_handler ev
    (Some
       (fun (site : Eval.ifp_site) ->
         if site.Eval.ifp_accum <> None then
           (* Annotated sites: Table-1 relations carry node identities,
              not semiring annotations — both engines run the
              interpreter's semiring kernel, keeping results equal. *)
           fall_back site.Eval.ifp_body
             "accumulate by: annotated fixpoints run on the interpreter's \
              semiring kernel"
         else if
           (* Definition 2.1 restricts IFP to node()*; decline atom
              seeds so both engines raise the same dynamic error *)
           List.exists
             (function Xdm.Item.A _ -> true | Xdm.Item.N _ -> false)
             site.Eval.ifp_seed
         then None
         else
           match
             site_outcome sites ~functions:(Eval.functions ev) ~stratified site
           with
           | Error reason -> fall_back site.Eval.ifp_body reason
           | Ok c ->
             let use_delta =
               match mode with
               | Naive -> false
               | Delta -> true
               | Auto -> c.push_distributive
             in
             used_delta := Some use_delta;
             let value_of (name, _) =
               if String.equal name "." then
                 match site.Eval.ifp_context with
                 | Some it -> [ it ]
                 | None -> []
               else
                 Option.value ~default:[]
                   (List.assoc_opt name site.Eval.ifp_bindings)
             in
             let values = List.map value_of c.used_refs in
             let bindings =
               List.map2
                 (fun (_, id) items -> (id, Compile.items_relation items))
                 c.used_refs values
             in
             let r =
               match List.assq_opt c !runs with
               | Some r -> r
               | None ->
                 let r = { memo = Plan_eval.memo c.program; bound = None } in
                 runs := (c, r) :: !runs;
                 r
             in
             (match r.bound with
             | Some prev
               when List.length prev = List.length values
                    && List.for_all2 ( == ) prev values ->
               ()
             | Some _ | None ->
               Plan_eval.new_session r.memo;
               r.bound <- Some values);
             let rel =
               Plan_eval.run_fix pe r.memo ~delta:use_delta
                 ~fix_id:c.cs.Compile.fix_id
                 ~seed:(Compile.items_relation site.Eval.ifp_seed)
                 bindings
             in
             Some (Compile.result_items rel)))

(* The SQL:1999 engine: the interpreter drives the query; every IFP
   site whose optimized plan renders to a linear WITH RECURSIVE query
   (see {!Render_sql}) runs on the {!Fixq_sqlrec} evaluator over
   materialized document relations. Non-renderable sites fall back to
   the interpreter — results stay byte-identical either way, the
   rendering only changes which fixpoint loop produces them. *)
type sql_site = {
  sql_cs : Compile.compiled;
  sql_distributive : bool;
  mutable sql_prep : Render_sql.prepared option;
      (** materialization, reusable while the seed's document root is
          unchanged (e.g. the per-course fixpoints of Rule 5) *)
}

let install_sql_handler ~max_iterations ~mode ~fallbacks ~used_delta ev =
  let cache : sql_site Expr_tbl.t = Expr_tbl.create 8 in
  let failed : string Expr_tbl.t = Expr_tbl.create 8 in
  let stats = Eval.stats ev in
  let decline reason site =
    if not (Expr_tbl.mem failed site.Eval.ifp_body) then begin
      fallbacks := reason :: !fallbacks;
      Expr_tbl.replace failed site.Eval.ifp_body reason
    end;
    None
  in
  Eval.set_ifp_handler ev
    (Some
       (fun (site : Eval.ifp_site) ->
         if site.Eval.ifp_accum <> None then
           decline
             "accumulate by: annotated fixpoints run on the interpreter's \
              semiring kernel"
             site
         else if
           List.exists
             (function Xdm.Item.A _ -> true | Xdm.Item.N _ -> false)
             site.Eval.ifp_seed
         then None (* Definition 2.1: let the interpreter raise *)
         else if Expr_tbl.mem failed site.Eval.ifp_body then None
         else
           let compiled =
             match Expr_tbl.find_opt cache site.Eval.ifp_body with
             | Some c -> Some c
             | None -> (
               let names =
                 List.map fst site.Eval.ifp_bindings
                 @ (if site.Eval.ifp_context <> None then [ "." ] else [])
               in
               match
                 Compile.body ~functions:(Eval.functions ev)
                   ~recursion_var:site.Eval.ifp_var ~bindings:names
                   site.Eval.ifp_body
               with
               | exception Compile.Unsupported reason ->
                 decline ("no SQL rendering: " ^ reason) site
               | cs ->
                 let cs =
                   { cs with Compile.body = Optimize.optimize cs.Compile.body }
                 in
                 (* Static renderability is a property of the body; a
                    failure here is permanent for the site. *)
                 (match
                    Render_sql.render ~fix_id:cs.Compile.fix_id cs.Compile.body
                  with
                 | Error reason -> decline ("no SQL rendering: " ^ reason) site
                 | Ok _ ->
                   let sql_distributive =
                     (Push.check ~stratified:false ~fix_id:cs.Compile.fix_id
                        cs.Compile.body)
                       .Push.distributive
                   in
                   let c = { sql_cs = cs; sql_distributive; sql_prep = None } in
                   Expr_tbl.replace cache site.Eval.ifp_body c;
                   Some c))
           in
           match compiled with
           | None -> None
           | Some c -> (
             let prep =
               match (c.sql_prep, site.Eval.ifp_seed) with
               | (Some p, Xdm.Item.N n :: _)
                 when Xdm.Node.equal (Xdm.Node.root n) p.Render_sql.root ->
                 Ok p
               | _ ->
                 Render_sql.prepare ~seed:site.Eval.ifp_seed
                   ~fix_id:c.sql_cs.Compile.fix_id c.sql_cs.Compile.body
             in
             match prep with
             | Error reason ->
               (* Seed-dependent: the same site may get a renderable
                  seed next time, so this is not a permanent failure. *)
               fallbacks := ("no SQL rendering: " ^ reason) :: !fallbacks;
               None
             | Ok p ->
               c.sql_prep <- Some p;
               let use_delta =
                 match mode with
                 | Naive -> false
                 | Delta -> true
                 | Auto -> c.sql_distributive
               in
               used_delta := Some use_delta;
               let seed_rows =
                 List.filter_map
                   (function
                     | Xdm.Item.N n -> Some (1, n.Xdm.Node.id)
                     | Xdm.Item.A _ -> None)
                   site.Eval.ifp_seed
               in
               let db = Render_sql.database p ~seed_rows in
               let r =
                 Sqlrec.run ~max_iterations ~stats
                   ~algorithm:(if use_delta then Sqlrec.Delta else Sqlrec.Naive)
                   db p.Render_sql.query
               in
               let rows =
                 List.filter_map
                   (function
                     | [ Fixq_sqlrec.Sqldb.I it; Fixq_sqlrec.Sqldb.I id ] ->
                       Option.map
                         (fun n -> [| Algebra_ir.Value.Int it; Algebra_ir.Value.Nd n |])
                         (Hashtbl.find_opt p.Render_sql.tables.Render_sql.decode id)
                     | _ -> None)
                   r.Sqlrec.result.Fixq_sqlrec.Sqldb.rows
               in
               Some
                 (Compile.result_items
                    (Algebra_ir.Relation.create [ "iter"; "item" ] rows)))))

let run_program ?(registry = Xdm.Doc_registry.default)
    ?(max_iterations = 1_000_000) ?(stratified = false) ?deadline ?round_hook
    ?max_call_depth ?sites ~engine p =
  let fallbacks = ref [] in
  let used_delta = ref None in
  let ev =
    (* The interpreter strategy doubles as the algebra and SQL engines'
       fallback policy: it runs any IFP their compilers reject. *)
    let mode = match engine with Interpreter m | Algebra m | Sql m -> m in
    Eval.create ~registry ~max_iterations ~stratified ?max_call_depth
      ~strategy:(strategy_of_mode mode) ()
  in
  (match engine with
  | Interpreter _ -> ()
  | Algebra mode ->
    let sites = match sites with Some s -> s | None -> create_sites () in
    install_algebra_handler ~sites ~registry ~max_iterations ~stratified ~mode
      ~fallbacks ~used_delta ev
  | Sql mode ->
    install_sql_handler ~max_iterations ~mode ~fallbacks ~used_delta ev);
  (match (deadline, round_hook) with
  | None, None -> ()
  | _ ->
    (* Cooperative: checked once per fixpoint round, on both engines
       (the plan evaluator shares this Stats.t). Straight-line queries
       without an IFP are not interrupted. *)
    Stats.set_iteration_hook (Eval.stats ev)
      (Some
         (fun () ->
           (match round_hook with None -> () | Some h -> h ());
           match deadline with
           | Some d when Unix.gettimeofday () > d -> raise Deadline_exceeded
           | _ -> ())));
  let t0 = now_ms () in
  let result =
    try Eval.run_program ev p with
    | Eval.Error m | Lang.Builtins.Error m | Plan_eval.Error m
    | Sqlrec.Error m ->
      raise (Error m)
    | Lang.Fixpoint.Diverged n ->
      raise (Error (Printf.sprintf "IFP diverged after %d iterations" n))
    | Deadline_exceeded -> raise (Error "deadline exceeded during IFP evaluation")
    | Xdm.Atom.Type_error m -> raise (Error ("type error: " ^ m))
  in
  let wall_ms = now_ms () -. t0 in
  let stats = Eval.stats ev in
  let used_delta =
    match engine with
    | Interpreter _ -> Eval.last_ifp_used_delta ev
    | Algebra _ | Sql _ -> (
      match !used_delta with
      | Some d -> Some d
      | None -> Eval.last_ifp_used_delta ev)
  in
  let semiring, annotations =
    match Eval.last_annotations ev with
    | None -> (None, [])
    | Some (kind, entries) ->
      ( Some (Fixq_semiring.Semiring.kind_to_string kind),
        List.map
          (fun (n, ann) ->
            ( Xdm.Serializer.seq_to_string [ Item.N n ],
              Fixq_semiring.Semiring.ann_to_string ann ))
          entries )
  in
  { result; engine; used_delta; nodes_fed = Stats.nodes_fed stats;
    depth = Stats.depth stats; wall_ms; fallbacks = List.rev !fallbacks;
    semiring; annotations }

let parse src =
  try Lang.Parser.parse_program src with
  | Lang.Parser.Error { line; col; msg } ->
    raise (Error (Printf.sprintf "parse error at %d:%d: %s" line col msg))
  | Lang.Lexer.Error { pos; msg } ->
    let line, col = Lang.Lexer.line_col_of src pos in
    raise (Error (Printf.sprintf "lex error at %d:%d: %s" line col msg))

let run ?registry ?max_iterations ?stratified ?deadline ?round_hook
    ?max_call_depth ~engine src =
  run_program ?registry ?max_iterations ?stratified ?deadline ?round_hook
    ?max_call_depth ~engine (parse src)

(* Capture the compiled plan of the first IFP encountered dynamically:
   install a capturing handler, then run the program on the interpreter.
   The handler fires at site entry — before any fixpoint iteration — so
   once the first site has been seen there is nothing left to learn and
   we abort the run.  Without the abort, preparing a divergent query
   would spin through the whole iteration budget just to capture a plan
   that was already in hand. *)
exception Plan_captured

let plan_of_first_ifp ?(registry = Xdm.Doc_registry.default)
    ?(max_iterations = 1_000_000) p =
  let captured = ref None in
  let ev = Eval.create ~registry ~max_iterations ~strategy:Eval.Naive () in
  Eval.set_ifp_handler ev
    (Some
       (fun (site : Eval.ifp_site) ->
         (match
            Compile.body ~functions:(Eval.functions ev)
              ~recursion_var:site.Eval.ifp_var
              ~bindings:
                (List.map fst site.Eval.ifp_bindings
                @ if site.Eval.ifp_context <> None then [ "." ] else [])
              site.Eval.ifp_body
          with
         | exception Compile.Unsupported _ -> ()
         | { Compile.fix_id; body; _ } -> captured := Some (fix_id, body));
         raise Plan_captured));
  (* A program that fails before reaching an IFP has no plan to
     capture; anything else (a governor's [Out_of_memory], a
     [Stack_overflow]) belongs to the request. *)
  (try ignore (Eval.run_program ev p) with
  | Plan_captured | Eval.Error _ | Lang.Builtins.Error _
  | Xdm.Atom.Type_error _ ->
    ());
  !captured

(* The SQL:1999 rendering of a captured IFP body (optimized first) —
   what the Sql engine would run at that site. *)
let sql_of_plan (fix_id, plan) =
  Render_sql.render ~fix_id (Optimize.optimize plan)

let sql_of_first_ifp ?registry ?max_iterations p =
  Option.map sql_of_plan (plan_of_first_ifp ?registry ?max_iterations p)

let iter_exprs f (p : Lang.Ast.program) =
  let rec go e =
    f e;
    List.iter go (Lang.Ast.subexprs e)
  in
  go p.Lang.Ast.main;
  List.iter (fun fd -> go fd.Lang.Ast.body) p.Lang.Ast.functions

(* Literal doc("uri") references anywhere in the program — main
   expression, function bodies and global variable declarations. The
   cluster router keys document-sharded placement on these. *)
let doc_uris (p : Lang.Ast.program) =
  let seen = Hashtbl.create 4 in
  let uris = ref [] in
  let visit e =
    match (e : Lang.Ast.expr) with
    | Lang.Ast.Call ("doc", [ Lang.Ast.Literal (Xdm.Atom.Str u) ])
      when not (Hashtbl.mem seen u) ->
      Hashtbl.replace seen u ();
      uris := u :: !uris
    | _ -> ()
  in
  let rec go e =
    visit e;
    List.iter go (Lang.Ast.subexprs e)
  in
  go p.Lang.Ast.main;
  List.iter (fun fd -> go fd.Lang.Ast.body) p.Lang.Ast.functions;
  List.iter (fun (_, e) -> go e) p.Lang.Ast.variables;
  List.rev !uris

let first_ifp (p : Lang.Ast.program) =
  let found = ref None in
  iter_exprs
    (fun e ->
      match (e : Lang.Ast.expr) with
      | Lang.Ast.Ifp { var; body; _ } when !found = None ->
        found := Some (var, body)
      | _ -> ())
    p;
  !found

(* Conservative syntactic check that [e] evaluates to document-tree
   nodes only — never atoms, never freshly constructed nodes. The
   cluster's scatter gate needs this: gathered slices are merged by
   portable node identity (document uri, preorder rank); atoms and
   constructed nodes have none, and a single process emits them in
   engine-production order, which cannot be reconstructed from
   slices. The check itself lives in the analyzer
   ({!Fixq_analysis.Analyze.node_only}), shared with the divergence
   classifier; this delegate keeps existing call sites working. *)
let node_only = Fixq_analysis.Analyze.node_only

let count_ifps (p : Lang.Ast.program) =
  let n = ref 0 in
  iter_exprs
    (function Lang.Ast.Ifp _ -> incr n | _ -> ())
    p;
  !n

(* Rewrite the first IFP's seed to its [index]-th residue class modulo
   [count]: [seed] becomes [seed[(position() - 1) mod count = index]].
   Theorem 3.2 (distributivity) is exactly the licence to evaluate a
   distributive IFP on each slice separately and union the results —
   the cluster coordinator's scatter-gather applies this rewrite on one
   worker per replica. The rewrite itself is mode- and engine-agnostic:
   the sliced seed is an ordinary filter expression. *)
let partition_first_seed ~index ~count (p : Lang.Ast.program) =
  if count < 1 || index < 0 || index >= count then
    raise
      (Error
         (Printf.sprintf "invalid seed partition %d/%d" index count));
  let ilit n = Lang.Ast.Literal (Xdm.Atom.Int n) in
  let slice seed =
    Lang.Ast.Filter
      ( seed,
        Lang.Ast.Gen_cmp
          ( Lang.Ast.Eq,
            Lang.Ast.Arith
              ( Lang.Ast.Mod,
                Lang.Ast.Arith
                  (Lang.Ast.Sub, Lang.Ast.Call ("position", []), ilit 1),
                ilit count ),
            ilit index ) )
  in
  let done_ = ref false in
  let rec go e =
    if !done_ then e
    else
      match (e : Lang.Ast.expr) with
      | Lang.Ast.Ifp { var; seed; body; accum } ->
        done_ := true;
        Lang.Ast.Ifp { var; seed = slice seed; body; accum }
      | _ -> map_subexprs go e
  and map_subexprs f e =
    match (e : Lang.Ast.expr) with
    | Lang.Ast.Literal _ | Lang.Ast.Empty_seq | Lang.Ast.Var _
    | Lang.Ast.Context_item | Lang.Ast.Root | Lang.Ast.Axis_step _ ->
      e
    | Lang.Ast.Sequence (a, b) -> Lang.Ast.Sequence (f a, f b)
    | Lang.Ast.Union (a, b) -> Lang.Ast.Union (f a, f b)
    | Lang.Ast.Except (a, b) -> Lang.Ast.Except (f a, f b)
    | Lang.Ast.Intersect (a, b) -> Lang.Ast.Intersect (f a, f b)
    | Lang.Ast.Path (a, b) -> Lang.Ast.Path (f a, f b)
    | Lang.Ast.Filter (a, b) -> Lang.Ast.Filter (f a, f b)
    | Lang.Ast.For r ->
      Lang.Ast.For { r with source = f r.source; body = f r.body }
    | Lang.Ast.Sort r ->
      Lang.Ast.Sort
        { r with source = f r.source; key = f r.key; body = f r.body }
    | Lang.Ast.Let r ->
      Lang.Ast.Let { r with value = f r.value; body = f r.body }
    | Lang.Ast.If (c, t, e') -> Lang.Ast.If (f c, f t, f e')
    | Lang.Ast.Quantified (q, v, s, pr) -> Lang.Ast.Quantified (q, v, f s, f pr)
    | Lang.Ast.Arith (op, a, b) -> Lang.Ast.Arith (op, f a, f b)
    | Lang.Ast.Neg a -> Lang.Ast.Neg (f a)
    | Lang.Ast.Gen_cmp (c, a, b) -> Lang.Ast.Gen_cmp (c, f a, f b)
    | Lang.Ast.Val_cmp (c, a, b) -> Lang.Ast.Val_cmp (c, f a, f b)
    | Lang.Ast.Node_is (a, b) -> Lang.Ast.Node_is (f a, f b)
    | Lang.Ast.Node_before (a, b) -> Lang.Ast.Node_before (f a, f b)
    | Lang.Ast.Node_after (a, b) -> Lang.Ast.Node_after (f a, f b)
    | Lang.Ast.And (a, b) -> Lang.Ast.And (f a, f b)
    | Lang.Ast.Or (a, b) -> Lang.Ast.Or (f a, f b)
    | Lang.Ast.Range (a, b) -> Lang.Ast.Range (f a, f b)
    | Lang.Ast.Call (n, args) -> Lang.Ast.Call (n, List.map f args)
    | Lang.Ast.Elem_constr (n, attrs, content) ->
      Lang.Ast.Elem_constr
        ( n,
          List.map
            (fun (an, pieces) ->
              ( an,
                List.map
                  (function
                    | Lang.Ast.A_lit l -> Lang.Ast.A_lit l
                    | Lang.Ast.A_expr e -> Lang.Ast.A_expr (f e))
                  pieces ))
            attrs,
          List.map f content )
    | Lang.Ast.Comp_elem (n, a) -> Lang.Ast.Comp_elem (n, f a)
    | Lang.Ast.Text_constr a -> Lang.Ast.Text_constr (f a)
    | Lang.Ast.Attr_constr (n, a) -> Lang.Ast.Attr_constr (n, f a)
    | Lang.Ast.Comment_constr a -> Lang.Ast.Comment_constr (f a)
    | Lang.Ast.Doc_constr a -> Lang.Ast.Doc_constr (f a)
    | Lang.Ast.Instance_of (a, ty) -> Lang.Ast.Instance_of (f a, ty)
    | Lang.Ast.Cast (a, ty, o) -> Lang.Ast.Cast (f a, ty, o)
    | Lang.Ast.Castable (a, ty, o) -> Lang.Ast.Castable (f a, ty, o)
    | Lang.Ast.Typeswitch (s, cases, dv, db) ->
      Lang.Ast.Typeswitch
        (f s, List.map (fun (ty, v, b) -> (ty, v, f b)) cases, dv, f db)
    | Lang.Ast.Ifp { var; seed; body; accum } ->
      let accum =
        Option.map
          (fun (a : Lang.Ast.accum) ->
            { a with Lang.Ast.weight = Option.map f a.Lang.Ast.weight })
          accum
      in
      Lang.Ast.Ifp { var; seed = f seed; body = f body; accum }
  in
  let main = go p.Lang.Ast.main in
  let functions =
    List.map
      (fun fd -> { fd with Lang.Ast.body = go fd.Lang.Ast.body })
      p.Lang.Ast.functions
  in
  if not !done_ then
    raise (Error "seed partition requires a query with an IFP");
  { p with Lang.Ast.main; functions }

let program_functions (p : Lang.Ast.program) =
  let functions = Hashtbl.create 16 in
  List.iter
    (fun fd -> Hashtbl.replace functions fd.Lang.Ast.fname fd)
    p.Lang.Ast.functions;
  functions

let distributivity_verdicts ?registry ?(stratified = false) ?plan p =
  match first_ifp p with
  | None -> None
  | Some (var, body) ->
    let functions = program_functions p in
    let syntactic =
      Lang.Distributivity.check ~functions ~stratified var body
    in
    let plan =
      match plan with
      | Some captured -> captured
      | None -> plan_of_first_ifp ?registry p
    in
    let algebraic =
      Option.map
        (fun (fix_id, plan) ->
          (Push.check ~stratified ~fix_id plan).Push.distributive)
        plan
    in
    Some (syntactic, algebraic)
