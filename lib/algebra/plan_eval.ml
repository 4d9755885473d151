module Node = Fixq_xdm.Node
module Atom = Fixq_xdm.Atom
module Axis = Fixq_xdm.Axis
module Accumulator = Fixq_xdm.Accumulator
module Doc_registry = Fixq_xdm.Doc_registry
module Encoding = Fixq_store.Encoding
module Staircase = Fixq_store.Staircase
module Stats = Fixq_lang.Stats
module Fixpoint = Fixq_lang.Fixpoint

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type t = {
  registry : Doc_registry.t;
  max_iterations : int;
  stats : Stats.t;
}

let create ?(registry = Doc_registry.default) ?(max_iterations = 1_000_000)
    ~stats () =
  { registry; max_iterations; stats }

let stats t = t.stats

module Imap = Map.Make (Int)

let cmp_holds (c : Plan.cmp) ord =
  match c with
  | Plan.Ceq -> ord = 0
  | Plan.Cne -> ord <> 0
  | Plan.Clt -> ord < 0
  | Plan.Cle -> ord <= 0
  | Plan.Cgt -> ord > 0
  | Plan.Cge -> ord >= 0

let eval_prim prim (args : Value.t list) =
  match (prim, args) with
  | (Plan.P_cmp c, [ a; b ]) -> Value.Bool (cmp_holds c (Value.compare_value a b))
  | (Plan.P_arith op, [ a; b ]) -> (
    let ai = Value.to_atom a and bi = Value.to_atom b in
    match (op, ai, bi) with
    | (Fixq_lang.Ast.Add, Atom.Int x, Atom.Int y) -> Value.Int (x + y)
    | (Fixq_lang.Ast.Sub, Atom.Int x, Atom.Int y) -> Value.Int (x - y)
    | (Fixq_lang.Ast.Mul, Atom.Int x, Atom.Int y) -> Value.Int (x * y)
    | (Fixq_lang.Ast.Idiv, _, _) -> Value.Int (Atom.to_int ai / Atom.to_int bi)
    | (Fixq_lang.Ast.Mod, Atom.Int x, Atom.Int y) -> Value.Int (x mod y)
    | (Fixq_lang.Ast.Add, _, _) ->
      Value.Dbl (Atom.to_number ai +. Atom.to_number bi)
    | (Fixq_lang.Ast.Sub, _, _) ->
      Value.Dbl (Atom.to_number ai -. Atom.to_number bi)
    | (Fixq_lang.Ast.Mul, _, _) ->
      Value.Dbl (Atom.to_number ai *. Atom.to_number bi)
    | (Fixq_lang.Ast.Div, _, _) ->
      Value.Dbl (Atom.to_number ai /. Atom.to_number bi)
    | (Fixq_lang.Ast.Mod, _, _) ->
      Value.Dbl (Float.rem (Atom.to_number ai) (Atom.to_number bi)))
  | (Plan.P_and, [ a; b ]) -> Value.Bool (Value.to_bool a && Value.to_bool b)
  | (Plan.P_or, [ a; b ]) -> Value.Bool (Value.to_bool a || Value.to_bool b)
  | (Plan.P_not, [ a ]) -> Value.Bool (not (Value.to_bool a))
  | (Plan.P_data, [ a ]) -> (
    match a with Value.Nd n -> Value.Str (Node.string_value n) | v -> v)
  | (Plan.P_name, [ a ]) -> Value.Str (Node.name (Value.as_node "name" a))
  | (Plan.P_root, [ a ]) -> Value.Nd (Node.root (Value.as_node "root" a))
  | (Plan.P_ebv, [ a ]) -> (
    match a with Value.Nd _ -> Value.Bool true | v -> Value.Bool (Value.to_bool v))
  | (Plan.P_const v, []) -> v
  | _ -> err "⊚: arity mismatch"

(* Batch (columnar) evaluation of ⊚: whole-column kernels for the hot
   primitives, boxed row-at-a-time only for the rest. *)
let eval_fun_col prim (args : Relation.col list) n =
  match (prim, args) with
  | (Plan.P_const v, []) -> (
    match v with
    | Value.Int x -> Relation.Ints (Array.make n x)
    | Value.Str s -> Relation.Strs (Array.make n s)
    | Value.Bool b -> Relation.Bools (Array.make n b)
    | Value.Nd nd -> Relation.Nodes (Array.make n nd)
    | Value.Dbl _ -> Relation.Vals (Array.make n v))
  | (Plan.P_data, [ c ]) -> (
    match c with
    | Relation.Nodes a -> Relation.Strs (Array.map Node.string_value a)
    | Relation.Ints _ | Relation.Strs _ | Relation.Bools _ -> c
    | Relation.Vals a ->
      Relation.col_of_values
        (Array.map
           (function
             | Value.Nd nd -> Value.Str (Node.string_value nd)
             | v -> v)
           a))
  | (Plan.P_ebv, [ c ]) -> (
    match c with
    | Relation.Nodes _ -> Relation.Bools (Array.make n true)
    | Relation.Bools _ -> c
    | Relation.Ints a -> Relation.Bools (Array.map (fun x -> x <> 0) a)
    | Relation.Strs a ->
      Relation.Bools (Array.map (fun s -> String.length s > 0) a)
    | Relation.Vals a ->
      Relation.Bools
        (Array.map
           (function Value.Nd _ -> true | v -> Value.to_bool v)
           a))
  | (Plan.P_cmp cm, [ a; b ]) -> (
    (* Value.compare_value atomizes: Int/Int and Str/Str reduce to the
       primitive comparisons, which covers iter and data() columns. *)
    match (a, b) with
    | (Relation.Ints x, Relation.Ints y) ->
      Relation.Bools
        (Array.init n (fun i -> cmp_holds cm (Int.compare x.(i) y.(i))))
    | (Relation.Strs x, Relation.Strs y) ->
      Relation.Bools
        (Array.init n (fun i -> cmp_holds cm (String.compare x.(i) y.(i))))
    | _ ->
      Fixq_xdm.Counters.col_boxed_rows :=
        !Fixq_xdm.Counters.col_boxed_rows + n;
      Relation.Bools
        (Array.init n (fun i ->
             cmp_holds cm
               (Value.compare_value (Relation.col_get a i)
                  (Relation.col_get b i)))))
  | _ ->
    Fixq_xdm.Counters.col_boxed_rows := !Fixq_xdm.Counters.col_boxed_rows + n;
    Relation.col_of_values
      (Array.init n (fun i ->
           eval_prim prim (List.map (fun c -> Relation.col_get c i) args)))

let whitespace_tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun x -> x <> "")

(* Axis steps repeat heavily across fixpoint rounds (lifted
   loop-invariant paths re-enter the step with the same context nodes),
   so results are cached per (axis, test, context node). The (axis,
   test) part is interned to a small integer when a plan is lowered
   (see [lower]), so the per-row cache key is a single unboxed int —
   hashing a string tuple per row costs more than the staircase scan it
   saves. Lowering may run on several server threads at once, hence the
   lock; evaluation only reads the interned id. *)
let step_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let step_ids_lock = Mutex.create ()

let step_id_of axis test =
  let key =
    Axis.axis_to_string axis ^ "|" ^ Format.asprintf "%a" Axis.pp_test test
  in
  Mutex.protect step_ids_lock (fun () ->
      match Hashtbl.find_opt step_ids key with
      | Some i -> i
      | None ->
        let i = Hashtbl.length step_ids in
        Hashtbl.add step_ids key i;
        i)

let step_cache : (int, Node.t list) Hashtbl.t = Hashtbl.create 4096

(* node ids are dense ints; 20 bits cover every (axis, name-test) pair
   a process will ever intern while leaving 42 for the node id *)
let step_single axis test step_id (n : Node.t) =
  let key = (n.Node.id lsl 20) lor step_id in
  match Hashtbl.find_opt step_cache key with
  | Some r -> r
  | None ->
    let enc = Encoding.of_tree_cached n in
    let r = Staircase.step_nodes enc axis test [ n ] in
    Hashtbl.replace step_cache key r;
    r

(* Growable parallel (source index, result node) buffers for the step
   kernel output. *)
type step_buf = {
  mutable src : int array;
  mutable nds : Node.t array;
  mutable n : int;
}

let step_push b i (m : Node.t) =
  if b.n = Array.length b.src then begin
    let cap = max 64 (b.n * 2) in
    let src' = Array.make cap 0 in
    Array.blit b.src 0 src' 0 b.n;
    b.src <- src';
    let nds' = Array.make cap m in
    Array.blit b.nds 0 nds' 0 b.n;
    b.nds <- nds'
  end;
  b.src.(b.n) <- i;
  b.nds.(b.n) <- m;
  b.n <- b.n + 1

let eval_step rel axis test ci step_id =
  let c = (Relation.cols rel).(ci) in
  let n = Relation.cardinal rel in
  let node_at =
    match c with
    | Relation.Nodes a -> fun i -> a.(i)
    | _ -> fun i -> Value.as_node "step" (Relation.col_get c i)
  in
  let buf = { src = [||]; nds = [||]; n = 0 } in
  for i = 0 to n - 1 do
    List.iter (step_push buf i) (step_single axis test step_id (node_at i))
  done;
  let src = Array.sub buf.src 0 buf.n in
  let gathered = Relation.gather rel src in
  let cols = Array.copy (Relation.cols gathered) in
  cols.(ci) <- Relation.Nodes (Array.sub buf.nds 0 buf.n);
  Relation.distinct (Relation.of_cols (Relation.schema rel) cols)

let eval_id_join registry ctx_rel arg_rel =
  ignore registry;
  (* Roots available per iter, from the ctx nodes. *)
  let iter_ci = Relation.column_index ctx_rel "iter" in
  let item_ci = Relation.column_index ctx_rel "item" in
  let roots_by_iter = Hashtbl.create 16 in
  List.iter
    (fun row ->
      match row.(item_ci) with
      | Value.Nd n ->
        let key = Value.key row.(iter_ci) in
        let r = Node.root n in
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt roots_by_iter key)
        in
        if not (List.exists (fun x -> Node.equal x r) existing) then
          Hashtbl.replace roots_by_iter key (r :: existing)
      | _ -> ())
    (Relation.rows ctx_rel);
  let a_iter = Relation.column_index arg_rel "iter" in
  let a_item = Relation.column_index arg_rel "item" in
  let out = ref [] in
  List.iter
    (fun row ->
      let key = Value.key row.(a_iter) in
      let roots =
        Option.value ~default:[] (Hashtbl.find_opt roots_by_iter key)
      in
      let tokens =
        whitespace_tokens (Atom.to_string (Value.to_atom row.(a_item)))
      in
      List.iter
        (fun tok ->
          List.iter
            (fun root ->
              match Node.lookup_id root tok with
              | Some e ->
                let r = Array.copy row in
                r.(a_item) <- Value.Nd e;
                out := r :: !out
              | None -> ())
            roots)
        tokens)
    (Relation.rows arg_rel);
  Relation.distinct (Relation.create (Relation.schema arg_rel) (List.rev !out))

let eval_aggr agg spec rel =
  let module P = Plan in
  match agg with
  | P.A_count ->
    Relation.group_count ~partition:spec.P.agg_partition
      ~result:spec.P.agg_result rel
  | P.A_sum | P.A_max | P.A_min ->
    let input =
      match spec.P.agg_input with
      | Some c -> c
      | None -> err "aggr: sum/max/min need an input column"
    in
    let ii = Relation.column_index rel input in
    let groups = Hashtbl.create 16 in
    let keys = ref [] in
    let part_ci = Option.map (Relation.column_index rel) spec.P.agg_partition in
    List.iter
      (fun row ->
        let key =
          match part_ci with None -> Value.KI 0 | Some i -> Value.key row.(i)
        in
        (match Hashtbl.find_opt groups key with
        | None ->
          keys := (key, row) :: !keys;
          Hashtbl.add groups key [ row.(ii) ]
        | Some vs -> Hashtbl.replace groups key (row.(ii) :: vs)))
      (Relation.rows rel);
    let fold vs =
      match agg with
      | P.A_sum ->
        Value.Dbl
          (List.fold_left
             (fun acc v -> acc +. Atom.to_number (Value.to_atom v))
             0.0 vs)
      | P.A_max ->
        List.fold_left
          (fun acc v -> if Value.compare_value v acc > 0 then v else acc)
          (List.hd vs) (List.tl vs)
      | P.A_min ->
        List.fold_left
          (fun acc v -> if Value.compare_value v acc < 0 then v else acc)
          (List.hd vs) (List.tl vs)
      | P.A_count -> assert false
    in
    let schema =
      match spec.P.agg_partition with
      | None -> [ spec.P.agg_result ]
      | Some p -> [ p; spec.P.agg_result ]
    in
    let rows =
      List.rev_map
        (fun (key, proto) ->
          let v = fold (Hashtbl.find groups key) in
          match part_ci with
          | None -> [| v |]
          | Some i -> [| proto.(i); v |])
        !keys
    in
    Relation.create schema rows

(* ------------------------------------------------------------------ *)
(* Slot programs                                                       *)
(* ------------------------------------------------------------------ *)

(* Plans are DAGs: compiled plans share subtrees (e.g. the context
   binding feeding both inputs of an id-join). Each physical node must
   evaluate exactly once per environment — operators like # (Tag) mint
   fresh values per evaluation, so re-evaluating a shared subtree would
   break join alignment. [lower] walks the DAG once and gives every
   physical node a dense slot, so the memos are plain arrays indexed by
   slot, and resolves once what does not depend on the inputs (which
   Fix_refs a subplan mentions, the step cache id, column positions,
   the semi-join shape). A program is immutable: one lowering serves
   any number of runs, on any thread. *)
type node = {
  slot : int;
  plan : Plan.t;  (** the operator; its inputs are read from [kids] *)
  kids : node array;  (** resolved children, in {!Plan.children} order *)
  refs : int list;  (** [Fix_ref] ids occurring in the subplan, sorted *)
  step_id : int;  (** interned (axis, test) of a step; [-1] otherwise *)
  cols : int array;
      (** lowered positions of the input columns the operator reads by
          name (step: the node column; ⊚: the arguments), [-1] where
          the input schema is not static *)
  semi : bool;
      (** δ∘π∘⋈ keeping only left-side columns: an existential filter,
          evaluated as a semi-join *)
}

type program = { root : node; size : int }

module Phys = Hashtbl.Make (struct
  type t = Plan.t

  let equal = ( == )

  (* Structural but depth-bounded (OCaml's generic hash): distinct
     physical nodes may collide only when structurally similar, and
     [equal] disambiguates. *)
  let hash = Hashtbl.hash
end)

let lower (root : Plan.t) : program =
  (* physical node → (lowered node, static output schema if any) *)
  let seen : (node * string list option) Phys.t = Phys.create 64 in
  let next = ref 0 in
  let schema_of p =
    match snd (Phys.find seen p) with
    | Some s -> s
    | None -> raise Exit (* a child without a static schema *)
  in
  let static_schema p =
    match Plan.schema_with schema_of p with
    | s -> Some s
    | exception (Invalid_argument _ | Exit) -> None
  in
  let position p name =
    match snd (Phys.find seen p) with
    | Some s -> (
      match List.find_index (String.equal name) s with
      | Some i -> i
      | None -> -1)
    | None -> -1
  in
  let rec go p =
    match Phys.find_opt seen p with
    | Some (n, _) -> n
    | None ->
      let kids = Array.of_list (List.map go (Plan.children p)) in
      let refs =
        match p with
        | Plan.Fix_ref (id, _) -> [ id ]
        | _ ->
          List.sort_uniq Int.compare
            (Array.fold_left (fun acc k -> k.refs @ acc) [] kids)
      in
      let step_id, cols =
        match p with
        | Plan.Step (axis, test, col, q) ->
          (step_id_of axis test, [| position q col |])
        | Plan.Fun (_, spec, q) ->
          (-1, Array.of_list (List.map (position q) spec.Plan.fun_args))
        | _ -> (-1, [||])
      in
      let semi =
        match p with
        | Plan.Distinct (Plan.Project (cols, Plan.Join (_, a, _))) -> (
          match snd (Phys.find seen a) with
          | Some sa -> List.for_all (fun (_, o) -> List.mem o sa) cols
          | None -> false)
        | _ -> false
      in
      let n = { slot = !next; plan = p; kids; refs; step_id; cols; semi } in
      incr next;
      Phys.replace seen p (n, static_schema p);
      n
  in
  let root = go root in
  { root; size = !next }

let mentions prog id = List.mem id prog.root.refs

(* The lowered position of a column, checked against the relation at
   hand: a Fix_ref bound at run time, or a µ whose body reorders its
   seed's columns, may present a different order than the static
   schema, and then the name decides. *)
let column_at rel name hint =
  if hint < 0 then Relation.column_index rel name
  else
    match List.nth_opt (Relation.schema rel) hint with
    | Some c when String.equal c name -> hint
    | _ -> Relation.column_index rel name

(* ------------------------------------------------------------------ *)
(* Slot memos                                                          *)
(* ------------------------------------------------------------------ *)

(* Memo lifetimes, one slot-indexed array each:
   - volatile: subplans depending on a Fix_ref being iterated by an
     enclosing µ/µ∆ — a fresh array every round (a nested µ's rounds
     get their own);
   - run: subplans depending on externally bound refs (the variable
     bindings of a compiled body) — kept while the binding values stay
     the same ({!new_session} drops them);
   - persistent: subplans over documents only — kept for the life of
     the {!memo}, i.e. one query run, so e.g. [$doc//open_auction]
     materializes once even when thousands of fixpoints reuse it. *)
let absent = Relation.empty [ "(absent)" ]

type memo = {
  prog : program;
  persistent : Relation.t array;
  run : Relation.t array;
}

let memo prog =
  { prog; persistent = Array.make prog.size absent;
    run = Array.make prog.size absent }

let new_session m = Array.fill m.run 0 (Array.length m.run) absent

type env = {
  fix : Relation.t Imap.t;
  volatile : Relation.t array;
  memo : memo;
  dep_ids : int list;  (** Fix_ref ids currently iterated *)
  run_ids : int list;  (** externally bound Fix_ref ids *)
}

let rec mentions_any ids refs =
  match ids with
  | [] -> false
  | id :: rest -> List.mem id refs || mentions_any rest refs

let memo_for env n =
  if mentions_any env.dep_ids n.refs then env.volatile
  else if mentions_any env.run_ids n.refs then env.memo.run
  else env.memo.persistent

(* Per-pair theta checks for a join, precompiled per column pair
   (specialized for the common string/int columns). *)
(* Promote θ-equalities over same-kind string/int columns into hash
   keys: [String.compare]/[Int.compare] equality coincides with the
   equi-join's [col_eq] on those kinds, and a hash probe replaces a
   per-pair bucket scan (the d=d value filters degenerate to O(|l|·|r|)
   otherwise). Mixed-kind comparisons keep θ's [Value.compare_value]
   coercions and stay residual. *)
let promote_theta_eq ra rb pred =
  let promote, rest =
    List.partition
      (fun (lc, cm, rc) ->
        cm = Plan.Ceq
        && (match (Relation.col ra lc, Relation.col rb rc) with
           | (Relation.Strs _, Relation.Strs _)
           | (Relation.Ints _, Relation.Ints _) ->
             true
           | _ -> false
           | exception _ -> false))
      pred.Plan.theta
  in
  (pred.Plan.equi @ List.map (fun (l, _, r) -> (l, r)) promote, rest)

let theta_extra ra rb theta =
  if theta = [] then None
  else begin
    let checks =
      List.map
        (fun (lc, cm, rc) ->
          let ca = Relation.col ra lc and cb = Relation.col rb rc in
          match (ca, cb) with
          | (Relation.Strs x, Relation.Strs y) ->
            fun i j -> cmp_holds cm (String.compare x.(i) y.(j))
          | (Relation.Ints x, Relation.Ints y) ->
            fun i j -> cmp_holds cm (Int.compare x.(i) y.(j))
          | _ ->
            fun i j ->
              cmp_holds cm
                (Value.compare_value (Relation.col_get ca i)
                   (Relation.col_get cb j)))
        theta
    in
    Some (fun i j -> List.for_all (fun f -> f i j) checks)
  end

(* Per-operator self-time accounting is opt-in: the two clock reads per
   evaluation, and the profile key, are measurable on workloads with
   tens of thousands of tiny fixpoint rounds. *)
let profile_timing = ref false

type profile_row = {
  op : string;
  lifetime : string;
  evals : int;
  rows : int;
  self_ms : float;
}

let profile : (string * string, profile_row) Hashtbl.t = Hashtbl.create 64

let reset_profile () = Hashtbl.reset profile

let profile_rows () =
  Hashtbl.fold (fun _ r acc -> r :: acc) profile []
  |> List.sort (fun a b -> Float.compare b.self_ms a.self_ms)

(* Time spent in child evaluations of the current [eval_timed] frame,
   so the profile records self-time per operator, not inclusive time. *)
let child_time = ref 0.0

let rec eval t env n =
  let memo = memo_for env n in
  let cached = memo.(n.slot) in
  if cached != absent then cached
  else begin
    let rel =
      if !profile_timing then eval_timed t env memo n else eval_raw t env n
    in
    memo.(n.slot) <- rel;
    rel
  end

and eval_timed t env memo n =
  let t0 = Sys.time () in
  let saved = !child_time in
  child_time := 0.0;
  let rel = eval_raw t env n in
  let elapsed = Sys.time () -. t0 in
  let self = elapsed -. !child_time in
  child_time := saved +. elapsed;
  let lifetime =
    if memo == env.volatile then "V"
    else if memo == env.memo.run then "R"
    else "P"
  in
  let op = Plan.op_symbol n.plan in
  let r =
    Option.value
      ~default:{ op; lifetime; evals = 0; rows = 0; self_ms = 0. }
      (Hashtbl.find_opt profile (lifetime, op))
  in
  Hashtbl.replace profile (lifetime, op)
    { r with evals = r.evals + 1; rows = r.rows + Relation.cardinal rel;
      self_ms = r.self_ms +. (self *. 1000.) };
  rel

and eval_raw t env n : Relation.t =
  let kid i = eval t env n.kids.(i) in
  match n.plan with
  | Plan.Lit_table (schema, rows) -> Relation.create schema rows
  | Plan.Doc uri -> (
    match Doc_registry.find ~registry:t.registry uri with
    | Some d -> Relation.create [ "item" ] [ [| Value.Nd d |] ]
    | None -> err "doc: document %S is not available" uri)
  | Plan.Fix_ref (id, schema) -> (
    match Imap.find_opt id env.fix with
    | Some rel -> rel
    | None -> Relation.empty schema)
  | Plan.Project (cols, _) -> Relation.project cols (kid 0)
  | Plan.Select (c, _) -> Relation.select_bool c (kid 0)
  | Plan.Join (pred, _, _) ->
    let ra = kid 0 and rb = kid 1 in
    let keys, residual = promote_theta_eq ra rb pred in
    let extra = theta_extra ra rb residual in
    Relation.equi_join ?extra keys ra rb
  | Plan.Cross _ -> Relation.cross (kid 0) (kid 1)
  | Plan.Distinct (Plan.Project (cols, Plan.Join (pred, _, _))) when n.semi ->
    (* δ∘π∘⋈ keeping only left-side columns is an existential filter —
       a semi-join: each left row survives at most once, and the match
       pairs are never materialized. (A left column's output name is
       never claimed by the right side: clashing right columns are
       renamed.) *)
    let join = n.kids.(0).kids.(0) in
    let ra = eval t env join.kids.(0) and rb = eval t env join.kids.(1) in
    let keys, residual = promote_theta_eq ra rb pred in
    let extra = theta_extra ra rb residual in
    Relation.distinct
      (Relation.project cols (Relation.semi_join ?extra keys ra rb))
  | Plan.Distinct _ -> Relation.distinct (kid 0)
  | Plan.Union _ -> Relation.union (kid 0) (kid 1)
  | Plan.Difference _ -> Relation.difference (kid 0) (kid 1)
  | Plan.Aggr (agg, spec, _) -> eval_aggr agg spec (kid 0)
  | Plan.Fun (prim, spec, _) ->
    let rel = kid 0 in
    let args =
      List.mapi
        (fun i a -> (Relation.cols rel).(column_at rel a n.cols.(i)))
        spec.Plan.fun_args
    in
    Relation.append_col spec.Plan.fun_result
      (eval_fun_col prim args (Relation.cardinal rel))
      rel
  | Plan.Tag (c, _) -> Relation.tag ~result:c (kid 0)
  | Plan.Row_num (spec, _) ->
    Relation.number ~order:spec.Plan.num_order
      ~partition:spec.Plan.num_partition ~result:spec.Plan.num_result (kid 0)
  | Plan.Step (axis, test, col, _) ->
    let rel = kid 0 in
    eval_step rel axis test (column_at rel col n.cols.(0)) n.step_id
  | Plan.Id_join _ -> eval_id_join t.registry (kid 0) (kid 1)
  | Plan.Construct (kind, _) ->
    err "the algebra engine does not construct nodes (ε:%s)" kind
  | Plan.Template _ | Plan.Iterate _ -> kid 0
  | Plan.Mu f ->
    eval_fix t env ~delta:false ~fix_id:f.Plan.fix_id ~seed:(kid 0) n.kids.(1)
  | Plan.Mu_delta f ->
    eval_fix t env ~delta:true ~fix_id:f.Plan.fix_id ~seed:(kid 0) n.kids.(1)

(* µ (Naïve) and µ∆ (Delta) at the algebra level: the relation instance
   of the fixpoint kernel, Figure 3 lifted to relations. The seen-set
   has two modes: packed mode covers the dominant [iter|item] shapes
   (int iters, node or int items) with two unboxed probes into an
   off-heap pair set; if a round produces a column kind packed keys
   can't represent (strings, doubles, width > 2), the accumulated runs
   replay once into the boxed row table and the loop continues there. *)
and eval_fix t env ~delta ~fix_id ~seed body =
  let seed = Relation.distinct seed in
  let schema_width = List.length (Relation.schema seed) in
  let apply input =
    (* Fresh volatile slots — the Fix_ref binding changed; loop-invariant
       subplans keep their run and persistent entries across rounds. *)
    eval t
      { env with
        fix = Imap.add fix_id input env.fix;
        volatile = Array.make env.memo.prog.size absent;
        dep_ids = fix_id :: env.dep_ids }
      body
  in
  let runs = ref [] in
  (* newest first *)
  let packed =
    (* sized from the seed: thousands of small per-course fixpoints must
       not each pay for a large off-heap table *)
    if schema_width >= 1 && schema_width <= 2 then
      Some (Relation.Pair_set.create (max 8 (Relation.cardinal seed * 4)))
    else None
  in
  let packed_ok = ref (packed <> None) in
  let boxed : unit Relation.Row_tbl.t lazy_t =
    lazy
      (let tbl = Relation.Row_tbl.create 1024 in
       (* migrate: replay already-accumulated runs *)
       List.iter
         (fun run ->
           for i = 0 to Relation.cardinal run - 1 do
             Relation.Row_tbl.replace tbl (Relation.row run i) ()
           done)
         !runs;
       tbl)
  in
  let total = ref 0 in
  (* Sorted-run bookkeeping: while the fixpoint stays over ["iter";
     "item"] rows with one constant iter and node items, per-round
     deltas are kept sorted by node id so the final assembly is a pure
     linear merge (and downstream ddo sees already-sorted input). *)
  let node_mode = ref (Relation.schema seed = [ "iter"; "item" ]) in
  let node_iter = ref None in
  let check_node_mode rel =
    if !node_mode && Relation.cardinal rel > 0 then
      match Relation.cols rel with
      | [| Relation.Ints iters; Relation.Nodes _ |] ->
        let v0 = match !node_iter with Some v -> v | None -> iters.(0) in
        node_iter := Some v0;
        if not (Array.for_all (fun v -> v = v0) iters) then node_mode := false
      | _ -> node_mode := false
  in
  let sort_run rel =
    (* silent pre-sort: makes every later merge input already sorted *)
    match Relation.cols rel with
    | [| Relation.Ints _; Relation.Nodes nds |] when !node_mode ->
      let n = Array.length nds in
      let sorted = ref true in
      for i = 1 to n - 1 do
        if nds.(i - 1).Node.id >= nds.(i).Node.id then sorted := false
      done;
      if !sorted then rel
      else begin
        let idx = Array.init n (fun i -> i) in
        Array.sort (fun i j -> Int.compare nds.(i).Node.id nds.(j).Node.id) idx;
        Relation.gather rel idx
      end
    | _ -> rel
  in
  (* Fresh first-occurrence rows of [rel] not seen before, in row order;
     also their count and [rel]'s raw cardinality, from the same pass. *)
  let fresh_of rel =
    let n = Relation.cardinal rel in
    let produced = n in
    let idx = Array.make n 0 in
    let k = ref 0 in
    let use_packed =
      !packed_ok
      &&
      match packed with
      | None -> false
      | Some set -> (
        let cols = Relation.cols rel in
        let reps = Array.map Relation.int_rep cols in
        if Array.for_all Option.is_some reps then begin
          (match reps with
          | [| Some r1 |] ->
            for i = 0 to n - 1 do
              if Relation.Pair_set.add set (r1 i) 0 then begin
                idx.(!k) <- i;
                incr k
              end
            done
          | [| Some r1; Some r2 |] ->
            for i = 0 to n - 1 do
              if Relation.Pair_set.add set (r1 i) (r2 i) then begin
                idx.(!k) <- i;
                incr k
              end
            done
          | _ -> assert false);
          true
        end
        else false)
    in
    if not use_packed then begin
      (* boxed fallback; disable packed mode for all later rounds so the
         two structures never diverge *)
      packed_ok := false;
      let tbl = Lazy.force boxed in
      k := 0;
      for i = 0 to n - 1 do
        let r = Relation.row rel i in
        if not (Relation.Row_tbl.mem tbl r) then begin
          Relation.Row_tbl.replace tbl r ();
          idx.(!k) <- i;
          incr k
        end
      done
    end;
    let fresh = Relation.gather rel (Array.sub idx 0 !k) in
    check_node_mode fresh;
    let fresh = sort_run fresh in
    total := !total + !k;
    if !k > 0 then runs := fresh :: !runs;
    (fresh, !k, produced)
  in
  (* The result takes the body's column order, as its first output
     has it; Naïve's input is every fresh run so far, in arrival order. *)
  let schema = ref None in
  let res = ref None in
  let absorb out =
    if !schema = None then schema := Some (Relation.schema out);
    let (fresh, k, produced) = fresh_of out in
    if not delta then
      res :=
        Some (match !res with None -> fresh | Some r -> Relation.union r fresh);
    (fresh, k, produced)
  in
  ignore
    (Fixpoint.run ~max_iterations:t.max_iterations
       ?whole:(if delta then None else Some (fun () -> Option.get !res))
       ~stats:t.stats ~body:apply ~absorb
       ~size:(fun () -> !total)
       (Fixpoint.Apply (seed, Relation.cardinal seed)));
  let schema = Option.get !schema in
  let rs = List.rev !runs in
  if !node_mode then
    (* pairwise linear merges over sorted, disjoint runs (the PR 3
       accumulator kernel) — output lands in document order, so the
       result gather is merge-only. *)
    let node_runs =
      List.map
        (fun r ->
          match Relation.cols r with
          | [| _; Relation.Nodes nds |] -> nds
          | _ -> assert false)
        rs
    in
    let merged = Accumulator.merge_runs node_runs in
    let iter_v = match !node_iter with Some v -> v | None -> 1 in
    Relation.of_cols schema
      [| Relation.Ints (Array.make (Array.length merged) iter_v);
         Relation.Nodes merged |]
  else Relation.concat_many schema rs

(* A top-level environment: nothing is iterated yet, so no slot is
   volatile at this level. *)
let top_env m bindings =
  { fix =
      List.fold_left (fun acc (id, rel) -> Imap.add id rel acc) Imap.empty
        bindings;
    volatile = [||]; memo = m; dep_ids = []; run_ids = List.map fst bindings }

let run_fix t m ~delta ~fix_id ~seed bindings =
  eval_fix t (top_env m bindings) ~delta ~fix_id ~seed m.prog.root

let run_with t bindings p =
  let m = memo (lower p) in
  eval t (top_env m bindings) m.prog.root

let run t p = run_with t [] p
