module Lang = Fixq_lang
module Push = Fixq_algebra.Push
module Analyze = Fixq_analysis.Analyze
module Diag = Fixq_analysis.Diag
module Estimate = Fixq_cost.Estimate

(* Compute once, publish, hand every later reader the published value.
   The mutex makes concurrent first forcings wait for one computation
   instead of racing (a shared [Lazy.t] raises [Undefined] when two
   threads force it); the cell stores no closure, so it keeps nothing
   alive but its value. *)
type 'a memo = { cell : 'a option Atomic.t; lock : Mutex.t }

let memo () = { cell = Atomic.make None; lock = Mutex.create () }

let force m compute =
  match Atomic.get m.cell with
  | Some v -> v
  | None ->
    Mutex.protect m.lock (fun () ->
        match Atomic.get m.cell with
        | Some v -> v
        | None ->
          let v = compute () in
          Atomic.set m.cell (Some v);
          v)

type compiled = {
  plan : (int * Fixq_algebra.Plan.t) option;
  push : Push.outcome option;
  algebraic : bool option;
  sql : (Fixq_algebra.Render_sql.rendered, string) result option;
  algebra_mode : Fixq.mode;
}

type t = {
  source : string;
  hash : string;
  program : Lang.Ast.program;
  spans : Lang.Parser.Spans.t;
  warnings : string list;
  analysis : Analyze.t;
  ifp_count : int;
  syntactic : bool;
  interp_mode : Fixq.mode;
  stratified : bool;
  generation : int;
  prepare_ms : float;
  store : Store.t;
  max_iterations : int;
  compiled_memo : compiled memo;
  estimate_memo : Estimate.t memo;
  sites : Fixq.sites;
}

exception Rejected of { message : string; diagnostics : Diag.t list }

let reject message diagnostics = raise (Rejected { message; diagnostics })

let hash_source src = Digest.to_hex (Digest.string src)

let format_diagnostic d = Format.asprintf "%a" Lang.Static.pp_diagnostic d

let captures = Atomic.make 0
let estimates = Atomic.make 0
let plan_captures () = Atomic.get captures
let cost_estimates () = Atomic.get estimates

let prepare ~store ~stratified ~max_iterations source =
  let t0 = Unix.gettimeofday () in
  let generation = Store.generation store in
  let program, spans =
    match Lang.Parser.parse_program_spans source with
    | p -> p
    | exception Lang.Parser.Error { line; col; msg } ->
      let message = Printf.sprintf "parse error at %d:%d: %s" line col msg in
      reject message [ Analyze.parse_error_diag ~line ~col msg ]
    | exception Lang.Lexer.Error { pos; msg } ->
      let line, col = Lang.Lexer.line_col_of source pos in
      let message = Printf.sprintf "lex error at %d:%d: %s" line col msg in
      reject message [ Analyze.parse_error_diag ~line ~col msg ]
  in
  let static = Lang.Static.check_program program in
  (match Lang.Static.errors static with
  | [] -> ()
  | errs ->
    reject
      (String.concat "; " (List.map format_diagnostic errs))
      (List.map (Analyze.of_static ~spans) errs));
  let warnings = List.map format_diagnostic static in
  let analysis = Analyze.analyze ~stratified ~spans program in
  let ifp_count = List.length analysis.Analyze.ifps in
  let syntactic =
    match analysis.Analyze.ifps with
    | [] -> false
    | r :: _ -> r.Analyze.syntactic
  in
  let interp_mode =
    if ifp_count = 0 then Fixq.Naive
    else if ifp_count > 1 then Fixq.Auto
    else if syntactic then Fixq.Delta
    else Fixq.Naive
  in
  { source; hash = hash_source source; program; spans; warnings; analysis;
    ifp_count; syntactic; interp_mode; stratified; generation;
    prepare_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    store; max_iterations; compiled_memo = memo (); estimate_memo = memo ();
    sites = Fixq.create_sites () }

(* One plan capture (an evaluation of the program prefix up to the first
   IFP site); the ∪ push-up verdict and the SQL rendering both read that
   captured plan. *)
let compile t =
  let plan =
    if t.ifp_count = 0 then None
    else begin
      Atomic.incr captures;
      Fixq.plan_of_first_ifp ~registry:(Store.registry t.store)
        ~max_iterations:t.max_iterations t.program
    end
  in
  let push =
    Option.map
      (fun (fix_id, p) -> Push.check ~stratified:t.stratified ~fix_id p)
      plan
  in
  let algebraic = Option.map (fun o -> o.Push.distributive) push in
  let algebra_mode =
    if t.ifp_count = 0 then Fixq.Naive
    else if t.ifp_count > 1 then Fixq.Auto
    else
      match algebraic with
      | Some true -> Fixq.Delta
      | Some false -> Fixq.Naive
      | None ->
        (* body outside the compilable subset: the site falls back to
           the interpreter, whose Auto strategy re-checks syntactically *)
        Fixq.Auto
  in
  { plan; push; algebraic; sql = Option.map Fixq.sql_of_plan plan;
    algebra_mode }

let compiled t = force t.compiled_memo (fun () -> compile t)

let estimate t =
  force t.estimate_memo (fun () ->
      Atomic.incr estimates;
      Estimate.analyze ~registry:(Store.registry t.store) ~spans:t.spans
        ~interp_delta:t.syntactic t.program)

let cost t =
  let c = compiled t in
  Estimate.with_verdicts
    ~compiled:(if t.ifp_count = 0 then None else Some (c.plan <> None))
    ~sql_renderable:(Option.map Result.is_ok c.sql)
    ~algebra_delta:(c.algebraic = Some true) ~interp_delta:t.syntactic
    (estimate t)

(* The parse, the static check and the distributivity verdicts depend
   only on the query text, but the cost estimate reads the document
   synopses — so an entry served after a load-doc/patch-doc starts a
   fresh estimate memo, or admission and engine choice would act on the
   document as it was when the estimate ran. The compiled memo and the
   algebra site table are shared with the superseded record: they are
   text-level too. *)
let refresh ~store t =
  let generation = Store.generation store in
  if t.generation = generation then t
  else { t with generation; estimate_memo = memo () }

let engine_name = function
  | `Interp -> "interp"
  | `Algebra -> "algebra"
  | `Sql -> "sql"

(* The interpreter's row is [work] discounted by the syntactic verdict,
   both known without a plan — so interp admission never compiles. *)
let predicted_cost t engine =
  let c = if engine = `Interp then estimate t else cost t in
  match
    List.find_opt
      (fun e -> e.Estimate.eng_name = engine_name engine)
      c.Estimate.engines
  with
  | Some e -> e.Estimate.eng_cost
  | None -> c.Estimate.work

let rounds_bound t = (estimate t).Estimate.rounds_bound

(* Diagnostics including the FQ031 push-block mapping, which needs the
   plan verdict and so cannot be part of [Analyze.analyze], plus the
   cost analyzer's FQ050–FQ054 findings. *)
let diagnostics t =
  let push_blocks =
    match ((compiled t).push, t.analysis.Analyze.ifps) with
    | Some o, r :: _ -> (
      match Analyze.push_block_diag ~spans:t.spans r o with
      | Some d -> [ d ]
      | None -> [])
    | _ -> []
  in
  List.stable_sort Diag.compare
    (t.analysis.Analyze.diagnostics @ push_blocks
    @ (estimate t).Estimate.diagnostics)

let divergence t =
  match t.analysis.Analyze.ifps with
  | [] -> None
  | r :: _ -> Some r.Analyze.divergence

let semiring t =
  match t.analysis.Analyze.ifps with
  | [] -> None
  | r :: _ -> r.Analyze.semiring

let chosen_engine t =
  match (cost t).Estimate.chosen with
  | "algebra" -> `Algebra
  | "sql" -> `Sql
  | _ -> `Interp

(* The Sql engine compiles the same Table-1 plan as the algebra engine
   before rendering, so it inherits the algebraic mode pin. *)
let rec mode_for t = function
  | `Interp -> t.interp_mode
  | `Algebra | `Sql -> (compiled t).algebra_mode
  | `Auto -> mode_for t (chosen_engine t)
