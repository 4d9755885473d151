module Item = Fixq_xdm.Item
module Atom = Fixq_xdm.Atom
module Node = Fixq_xdm.Node
module Axis = Fixq_xdm.Axis
module Doc_registry = Fixq_xdm.Doc_registry
module Counters = Fixq_xdm.Counters
module Smap = Map.Make (String)
open Ast

type strategy = Naive | Delta | Auto

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

module Semiring = Fixq_semiring.Semiring
module Annot_acc = Fixq_semiring.Annot_acc

type ifp_site = {
  ifp_var : string;
  ifp_seed : Item.seq;
  ifp_body : Ast.expr;
  ifp_accum : Ast.accum option;
  ifp_bindings : (string * Item.seq) list;
  ifp_context : Item.t option;
}

(* The per-run value index of one [axis::test[K = P]] filter site at
   one context node (see [eval_indexed_filter]). *)
type value_index =
  | Seen  (** evaluated once, by the scan *)
  | Unusable  (** a key atom was not a string, or the build raised *)
  | Built of Item.t array * (string, int) Hashtbl.t
      (** the step's candidates, and each key string → their positions *)

type index_site = {
  step : Ast.axis_step;
  pred : Ast.expr;  (** compared physically *)
  key : Ast.expr;
  probe : Ast.expr;
  mutable index : value_index;
}

type t = {
  functions : (string, fundef) Hashtbl.t;
  registry : Doc_registry.t;
  stats : Stats.t;
  mutable strategy : strategy;
  max_iterations : int;
  max_call_depth : int;
  mutable globals : Item.seq Smap.t;
  mutable last_ifp_used_delta : bool option;
  mutable last_annotations :
    (Semiring.kind * (Node.t * Semiring.ann) list) option;
      (** annotated result of the most recent [accumulate by] fixpoint *)
  mutable ifp_handler : (ifp_site -> Item.seq option) option;
  stratified : bool;
  value_indexes : (int, index_site list) Hashtbl.t;
      (** by context node id; lives and dies with this evaluator *)
}

type env = {
  vars : Item.seq Smap.t;
  ctx : (Item.t * int * int) option;  (** item, position, size *)
  depth : int;
}

let create ?(registry = Doc_registry.default) ?(strategy = Auto)
    ?(max_iterations = 1_000_000) ?(max_call_depth = 100_000)
    ?(stratified = false) () =
  { functions = Hashtbl.create 16; registry; stats = Stats.create ();
    strategy; max_iterations; max_call_depth; globals = Smap.empty;
    last_ifp_used_delta = None; last_annotations = None; ifp_handler = None;
    stratified; value_indexes = Hashtbl.create 8 }

let set_ifp_handler t h = t.ifp_handler <- h

let stats t = t.stats
let strategy t = t.strategy
let set_strategy t s = t.strategy <- s
let registry t = t.registry
let functions t = t.functions
let last_ifp_used_delta t = t.last_ifp_used_delta
let last_annotations t = t.last_annotations

let builtin_ctx t env =
  let (context_item, context_pos, context_size) =
    match env.ctx with
    | None -> (None, 0, 0)
    | Some (it, pos, size) -> (Some it, pos, size)
  in
  { Builtins.context_item; context_pos; context_size;
    registry = t.registry }

let lookup_var env v =
  match Smap.find_opt v env.vars with
  | Some s -> s
  | None -> err "undefined variable $%s" v

(* ------------------------------------------------------------------ *)
(* Typeswitch matching                                                 *)
(* ------------------------------------------------------------------ *)

let item_matches ty (it : Item.t) =
  match (ty, it) with
  | (It_item, _) -> true
  | (It_node, Item.N _) -> true
  | (It_node, Item.A _) -> false
  | (It_element pat, Item.N n) ->
    n.Node.kind = Node.Element
    && (match pat with None -> true | Some p -> p = Node.name n)
  | (It_element _, Item.A _) -> false
  | (It_attribute pat, Item.N n) ->
    n.Node.kind = Node.Attribute
    && (match pat with None -> true | Some p -> p = Node.name n)
  | (It_attribute _, Item.A _) -> false
  | (It_text, Item.N n) -> n.Node.kind = Node.Text
  | (It_text, Item.A _) -> false
  | (It_comment, Item.N n) -> n.Node.kind = Node.Comment
  | (It_comment, Item.A _) -> false
  | (It_document, Item.N n) -> n.Node.kind = Node.Document
  | (It_document, Item.A _) -> false
  | (It_atomic "integer", Item.A (Atom.Int _)) -> true
  | (It_atomic "double", Item.A (Atom.Dbl _)) -> true
  | (It_atomic "string", Item.A (Atom.Str _)) -> true
  | (It_atomic "boolean", Item.A (Atom.Bool _)) -> true
  | (It_atomic ("decimal" | "numeric"), Item.A (Atom.Int _ | Atom.Dbl _)) ->
    true
  | (It_atomic ("anyAtomicType" | "untypedAtomic"), Item.A _) -> true
  | (It_atomic _, _) -> false

let seq_matches ty (s : Item.seq) =
  match ty with
  | Empty_sequence -> s = []
  | Typed (it, occ) -> (
    let all = List.for_all (item_matches it) s in
    match occ with
    | One -> List.length s = 1 && all
    | Opt -> List.length s <= 1 && all
    | Star -> all
    | Plus -> s <> [] && all)

(* ------------------------------------------------------------------ *)
(* Arithmetic and comparisons                                          *)
(* ------------------------------------------------------------------ *)

let arith_op op a b =
  match op with
  | Add | Sub | Mul -> (
    let f = match op with Add -> ( +. ) | Sub -> ( -. ) | _ -> ( *. ) in
    let fi = match op with Add -> ( + ) | Sub -> ( - ) | _ -> ( * ) in
    match (a, b) with
    | (Atom.Int x, Atom.Int y) -> Atom.Int (fi x y)
    | _ -> Atom.Dbl (f (Atom.to_number a) (Atom.to_number b)))
  | Div ->
    let y = Atom.to_number b in
    if y = 0.0 then err "division by zero"
    else Atom.Dbl (Atom.to_number a /. y)
  | Idiv ->
    let y = Atom.to_int b in
    if y = 0 then err "integer division by zero" else Atom.Int (Atom.to_int a / y)
  | Mod -> (
    match (a, b) with
    | (Atom.Int x, Atom.Int y) ->
      if y = 0 then err "modulus by zero" else Atom.Int (x mod y)
    | _ ->
      let y = Atom.to_number b in
      if y = 0.0 then err "modulus by zero"
      else Atom.Dbl (Float.rem (Atom.to_number a) y))

(* XQuery cast: atomic value conversion by target type name. *)
let cast_atom ty (a : Atom.t) =
  match ty with
  | "integer" | "int" | "long" -> Atom.Int (Atom.to_int a)
  | "double" | "decimal" | "float" -> Atom.Dbl (Atom.to_number a)
  | "string" | "untypedAtomic" | "anyURI" -> Atom.Str (Atom.to_string a)
  | "boolean" -> (
    match a with
    | Atom.Bool _ -> a
    | Atom.Str "true" | Atom.Str "1" -> Atom.Bool true
    | Atom.Str "false" | Atom.Str "0" -> Atom.Bool false
    | Atom.Int 0 -> Atom.Bool false
    | Atom.Int _ -> Atom.Bool true
    | Atom.Dbl f -> Atom.Bool (f <> 0.0 && not (Float.is_nan f))
    | Atom.Str s -> Atom.type_error "cannot cast %S to xs:boolean" s)
  | other -> Atom.type_error "unsupported cast target xs:%s" other

let cmp_result c ord =
  match c with
  | Eq -> ord = 0
  | Ne -> ord <> 0
  | Lt -> ord < 0
  | Le -> ord <= 0
  | Gt -> ord > 0
  | Ge -> ord >= 0

(* ------------------------------------------------------------------ *)
(* Value-index eligibility                                             *)
(* ------------------------------------------------------------------ *)

(* Evaluating a pure expression once or many times is unobservable: it
   constructs no nodes, runs no fixpoint, calls no user function, and
   does not ask for its position in the focus. *)
let rec pure e =
  (match e with
  | Ifp _ | Elem_constr _ | Comp_elem _ | Text_constr _ | Attr_constr _
  | Comment_constr _ | Doc_constr _
  | Call (("position" | "last"), _) ->
    false
  | Call (f, _) -> Builtins.is_builtin f
  | _ -> true)
  && List.for_all pure (Ast.subexprs e)

(* Does [e] read the focus it is evaluated under? Path steps and filter
   predicates get their focus from the left operand. *)
let rec reads_focus = function
  | Context_item | Root | Axis_step _ -> true
  | Path (a, _) | Filter (a, _) -> reads_focus a
  | Call (f, args) ->
    Builtins.reads_context f (List.length args) || List.exists reads_focus args
  | e -> List.exists reads_focus (Ast.subexprs e)

(* Split the operands of a [step[l = r]] predicate into (key, probe):
   the key's value depends on the candidate alone (pure, no free
   variables), the probe's not at all (pure, focus-free). *)
let index_operands l r =
  let key k = pure k && Hashtbl.length (Ast.free_vars k) = 0 in
  let probe p = pure p && not (reads_focus p) in
  if key l && probe r then Some (l, r)
  else if key r && probe l then Some (r, l)
  else None

(* ------------------------------------------------------------------ *)
(* Node construction                                                   *)
(* ------------------------------------------------------------------ *)

(* Content sequence → (attributes, children): runs of adjacent atoms
   merge into one space-separated text node; document nodes contribute
   their children; attribute nodes become element attributes (they must
   precede other content, which we enforce loosely by collecting them
   wherever they appear). *)
let assemble_content (content : Item.seq) =
  let attrs = ref [] in
  let kids = ref [] in
  let pending = ref [] in
  let flush_atoms () =
    if !pending <> [] then begin
      let s = String.concat " " (List.rev_map Atom.to_string !pending) in
      kids := Node.text s :: !kids;
      pending := []
    end
  in
  List.iter
    (fun it ->
      match it with
      | Item.A a -> pending := a :: !pending
      | Item.N n -> (
        flush_atoms ();
        match n.Node.kind with
        | Node.Attribute -> attrs := (Node.name n, n.Node.content) :: !attrs
        | Node.Document -> List.iter (fun c -> kids := c :: !kids) (Node.children n)
        | _ -> kids := n :: !kids))
    content;
  flush_atoms ();
  (List.rev !attrs, List.rev !kids)

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

let rec eval t env (e : expr) : Item.seq =
  match e with
  | Literal a -> [ Item.A a ]
  | Empty_seq -> []
  | Var v -> lookup_var env v
  | Context_item -> (
    match env.ctx with
    | Some (it, _, _) -> [ it ]
    | None -> err "no context item for '.'")
  | Root -> (
    match env.ctx with
    | Some (Item.N n, _, _) -> [ Item.N (Node.root n) ]
    | Some (Item.A _, _, _) -> err "the context item for '/' is not a node"
    | None -> err "no context item for '/'")
  (* Binary operands evaluate left to right explicitly: OCaml's
     right-to-left argument order would make constructors in the right
     operand allocate node ids first, putting separately constructed
     trees in surprising document order. *)
  | Sequence (a, b) ->
    let va = eval t env a in
    va @ eval t env b
  | Union (a, b) ->
    let va = eval t env a in
    Item.union va (eval t env b)
  | Except (a, b) ->
    let va = eval t env a in
    Item.except va (eval t env b)
  | Intersect (a, b) ->
    let va = eval t env a in
    Item.intersect va (eval t env b)
  | Path (a, b) -> eval_path t env a b
  | Axis_step { axis; test } -> (
    match env.ctx with
    | Some (Item.N n, _, _) ->
      List.map Item.node (Axis.step axis test n)
    | Some (Item.A _, _, _) -> err "axis step on a non-node context item"
    | None -> err "no context item for an axis step")
  | Filter (a, p) -> eval_filter t env a p
  | For { var; pos; source; body } ->
    let src = eval t env source in
    List.concat
      (List.mapi
         (fun i it ->
           let vars = Smap.add var [ it ] env.vars in
           let vars =
             match pos with
             | None -> vars
             | Some p -> Smap.add p [ Item.A (Atom.Int (i + 1)) ] vars
           in
           eval t { env with vars } body)
         src)
  | Sort { var; source; key; descending; body } ->
    let src = eval t env source in
    let keyed =
      List.map
        (fun it ->
          let kv =
            Item.atomize
              (eval t { env with vars = Smap.add var [ it ] env.vars } key)
          in
          let k =
            match kv with
            | [] -> None (* empty keys sort first ("empty least") *)
            | [ a ] -> Some a
            | _ -> err "order by: the key is not a singleton"
          in
          (k, it))
        src
    in
    let cmp (a, _) (b, _) =
      let base =
        match (a, b) with
        | (None, None) -> 0
        | (None, Some _) -> -1
        | (Some _, None) -> 1
        | (Some x, Some y) -> Atom.compare_value x y
      in
      if descending then -base else base
    in
    let sorted = List.stable_sort cmp keyed in
    List.concat_map
      (fun (_, it) ->
        eval t { env with vars = Smap.add var [ it ] env.vars } body)
      sorted
  | Let { var; value; body } ->
    let v = eval t env value in
    eval t { env with vars = Smap.add var v env.vars } body
  | If (c, th, el) ->
    if Item.effective_boolean (eval t env c) then eval t env th
    else eval t env el
  | Quantified (q, v, source, pred) ->
    let src = eval t env source in
    let test it =
      Item.effective_boolean
        (eval t { env with vars = Smap.add v [ it ] env.vars } pred)
    in
    let r =
      match q with
      | Some_ -> List.exists test src
      | Every -> List.for_all test src
    in
    [ Item.A (Atom.Bool r) ]
  | Arith (op, a, b) -> (
    let va = Item.atomize (eval t env a) in
    let vb = Item.atomize (eval t env b) in
    match (va, vb) with
    | ([], _) | (_, []) -> []
    | ([ x ], [ y ]) -> [ Item.A (arith_op op x y) ]
    | _ -> err "arithmetic over non-singleton sequences")
  | Neg a -> (
    match Item.atomize (eval t env a) with
    | [] -> []
    | [ Atom.Int i ] -> [ Item.A (Atom.Int (-i)) ]
    | [ x ] -> [ Item.A (Atom.Dbl (-.Atom.to_number x)) ]
    | _ -> err "unary minus over a non-singleton sequence")
  | Gen_cmp (c, a, b) ->
    let va = Item.atomize (eval t env a) in
    let vb = Item.atomize (eval t env b) in
    let holds =
      List.exists
        (fun x ->
          List.exists (fun y -> cmp_result c (Atom.compare_value x y)) vb)
        va
    in
    [ Item.A (Atom.Bool holds) ]
  | Val_cmp (c, a, b) -> (
    let va = Item.atomize (eval t env a) in
    let vb = Item.atomize (eval t env b) in
    match (va, vb) with
    | ([], _) | (_, []) -> []
    | ([ x ], [ y ]) -> [ Item.A (Atom.Bool (cmp_result c (Atom.compare_value x y))) ]
    | _ -> err "value comparison over non-singleton sequences")
  | Node_is (a, b) -> eval_node_cmp t env a b (fun x y -> Node.equal x y)
  | Node_before (a, b) ->
    eval_node_cmp t env a b (fun x y -> Node.compare_doc_order x y < 0)
  | Node_after (a, b) ->
    eval_node_cmp t env a b (fun x y -> Node.compare_doc_order x y > 0)
  | And (a, b) ->
    [ Item.A
        (Atom.Bool
           (Item.effective_boolean (eval t env a)
           && Item.effective_boolean (eval t env b))) ]
  | Or (a, b) ->
    [ Item.A
        (Atom.Bool
           (Item.effective_boolean (eval t env a)
           || Item.effective_boolean (eval t env b))) ]
  | Range (a, b) -> (
    let va = Item.atomize (eval t env a) in
    let vb = Item.atomize (eval t env b) in
    match (va, vb) with
    | ([], _) | (_, []) -> []
    | ([ x ], [ y ]) ->
      let lo = Atom.to_int x and hi = Atom.to_int y in
      let rec build i acc = if i < lo then acc else build (i - 1) (Item.A (Atom.Int i) :: acc) in
      build hi []
    | _ -> err "'to' over non-singleton sequences")
  | Call (f, args) -> eval_call t env f args
  | Elem_constr (name, attr_specs, content) ->
    let attr_of_spec (an, pieces) =
      let v =
        String.concat ""
          (List.map
             (function
               | A_lit s -> s
               | A_expr e ->
                 String.concat " "
                   (List.map Atom.to_string (Item.atomize (eval t env e))))
             pieces)
      in
      (an, v)
    in
    let direct_attrs = List.map attr_of_spec attr_specs in
    let content_items = List.concat_map (eval t env) content in
    let (content_attrs, kids) = assemble_content content_items in
    [ Item.N (Node.element name ~attrs:(direct_attrs @ content_attrs) kids) ]
  | Comp_elem (name, body) ->
    let (content_attrs, kids) = assemble_content (eval t env body) in
    [ Item.N (Node.element name ~attrs:content_attrs kids) ]
  | Text_constr body -> (
    match Item.atomize (eval t env body) with
    | [] -> []
    | atoms ->
      let s = String.concat " " (List.map Atom.to_string atoms) in
      [ Item.N (Node.text s) ])
  | Attr_constr (name, body) ->
    let s =
      String.concat " "
        (List.map Atom.to_string (Item.atomize (eval t env body)))
    in
    [ Item.N (Node.attribute name s) ]
  | Comment_constr body ->
    let s =
      String.concat " "
        (List.map Atom.to_string (Item.atomize (eval t env body)))
    in
    [ Item.N (Node.comment s) ]
  | Doc_constr body ->
    let (attrs, kids) = assemble_content (eval t env body) in
    if attrs <> [] then err "document constructor content has attributes";
    [ Item.N (Node.document kids) ]
  | Instance_of (a, ty) ->
    [ Item.A (Atom.Bool (seq_matches ty (eval t env a))) ]
  | Cast (a, ty, optional) -> (
    match Item.atomize (eval t env a) with
    | [] ->
      if optional then []
      else err "cast as xs:%s: empty sequence (no '?')" ty
    | [ atom ] -> [ Item.A (cast_atom ty atom) ]
    | _ -> err "cast as xs:%s: more than one item" ty)
  | Castable (a, ty, optional) -> (
    match Item.atomize (eval t env a) with
    | [] -> [ Item.A (Atom.Bool optional) ]
    | [ atom ] ->
      [ Item.A
          (Atom.Bool
             (match cast_atom ty atom with
             | (_ : Atom.t) -> true
             | exception _ -> false)) ]
    | _ -> [ Item.A (Atom.Bool false) ])
  | Typeswitch (scrut, cases, dvar, dbody) ->
    let v = eval t env scrut in
    let rec try_cases = function
      | [] ->
        let vars =
          match dvar with
          | None -> env.vars
          | Some x -> Smap.add x v env.vars
        in
        eval t { env with vars } dbody
      | (ty, cvar, body) :: rest ->
        if seq_matches ty v then
          let vars =
            match cvar with
            | None -> env.vars
            | Some x -> Smap.add x v env.vars
          in
          eval t { env with vars } body
        else try_cases rest
    in
    try_cases cases
  | Ifp { var; seed; body; accum } -> eval_ifp t env var seed body accum

and eval_node_cmp t env a b op =
  let na = eval t env a and nb = eval t env b in
  match (na, nb) with
  | ([], _) | (_, []) -> []
  | ([ Item.N x ], [ Item.N y ]) -> [ Item.A (Atom.Bool (op x y)) ]
  | _ -> err "node comparison requires single nodes"

and eval_path t env a b =
  (* Collapse the // desugaring [e/descendant-or-self::node()/child::T]
     to [e/descendant::T] — same node set for any test T, and the form
     the per-document name index can answer. Through a filter the
     rewrite changes the predicate's context positions, so it is gated
     on the predicate being surely boolean and position()/last()-free. *)
  match (a, b) with
  | ( Path (x, Axis_step { axis = Axis.Descendant_or_self; test = Axis.Kind_node }),
      Axis_step { axis = Axis.Child; test } ) ->
    eval_path t env x (Axis_step { axis = Axis.Descendant; test })
  | ( Path (x, Axis_step { axis = Axis.Descendant_or_self; test = Axis.Kind_node }),
      Filter (Axis_step { axis = Axis.Child; test }, pred) )
    when Ast.surely_boolean pred && not (Ast.calls_position_or_last pred) ->
    eval_path t env x (Filter (Axis_step { axis = Axis.Descendant; test }, pred))
  | _ -> eval_path_steps t env a b

and eval_path_steps t env a b =
  let left = eval t env a in
  let nodes = Item.as_node_seq "path" left in
  let nodes = Item.sort_uniq_nodes nodes in
  let size = List.length nodes in
  let results =
    List.concat
      (List.mapi
         (fun i n ->
           let env' = { env with ctx = Some (Item.N n, i + 1, size) } in
           eval t env' b)
         nodes)
  in
  let all_nodes = List.for_all (function Item.N _ -> true | _ -> false) results in
  let all_atoms = List.for_all (function Item.A _ -> true | _ -> false) results in
  if all_nodes then Item.ddo results
  else if all_atoms then results
  else err "a path step mixes nodes and atomic values"

and eval_filter t env a p =
  match (a, p, env.ctx) with
  | (Axis_step step, Gen_cmp (Eq, l, r), Some (Item.N n, _, _)) ->
    eval_indexed_filter t env step p l r n
  | _ -> eval_filter_scan t env a p

and eval_filter_scan t env a p =
  let src = eval t env a in
  let size = List.length src in
  let keep i it =
    let env' = { env with ctx = Some (it, i + 1, size) } in
    let pv = eval t env' p in
    match pv with
    | [ Item.A ((Atom.Int _ | Atom.Dbl _) as num) ] ->
      Float.equal (Atom.to_number num) (float_of_int (i + 1))
    | _ -> Item.effective_boolean pv
  in
  List.filteri keep src

(* [axis::test[K = P]] with an indexable key K and probe P (see
   [index_operands]). The first evaluation at a context node only
   records the site — a filter run once, like a query's seed, never
   pays for an index. The second builds a table from each candidate's
   key strings to its positions; it and every later one evaluate P
   once and look its atoms up instead of rescanning the candidates.
   Strings compare by [String.equal] under [Gen_cmp]; any other atom
   sends the site (key side) or the call (probe side) down the scan,
   which keeps every result and error of the scan. *)
and eval_indexed_filter t env step pred l r n =
  let scan () = eval_filter_scan t env (Axis_step step) pred in
  let sites =
    Option.value ~default:[] (Hashtbl.find_opt t.value_indexes n.Node.id)
  in
  match
    List.find_opt
      (fun s -> s.pred == pred && equal_axis_step s.step step)
      sites
  with
  | None ->
    (match index_operands l r with
    | Some (key, probe) ->
      Hashtbl.replace t.value_indexes n.Node.id
        ({ step; pred; key; probe; index = Seen } :: sites)
    | None -> ());
    scan ()
  | Some site -> (
    (match site.index with
    | Seen -> site.index <- build_value_index t env site
    | Unusable | Built _ -> ());
    match site.index with
    | Built (cands, _) when Array.length cands = 0 -> []
    | Built (cands, table) -> (
      let env' = { env with ctx = Some (cands.(0), 1, Array.length cands) } in
      let probes = Item.atomize (eval t env' site.probe) in
      match
        List.concat_map
          (function
            | Atom.Str s -> Hashtbl.find_all table s
            | _ -> raise_notrace Exit)
          probes
      with
      | positions ->
        incr Counters.value_index_probes;
        List.map (fun i -> cands.(i)) (List.sort_uniq Int.compare positions)
      | exception Exit -> scan ())
    | Seen | Unusable -> scan ())

(* A dynamic error while keying the candidates leaves the site to the
   scan, which raises it again in the scan's own order. *)
and build_value_index t env site =
  let cands = Array.of_list (eval t env (Axis_step site.step)) in
  let size = Array.length cands in
  let table = Hashtbl.create size in
  let add_keys i it =
    let env' = { env with ctx = Some (it, i + 1, size) } in
    List.iter
      (function Atom.Str s -> Hashtbl.add table s i | _ -> raise_notrace Exit)
      (Item.atomize (eval t env' site.key))
  in
  match Array.iteri add_keys cands with
  | () ->
    incr Counters.value_index_builds;
    Built (cands, table)
  | exception (Exit | Error _ | Builtins.Error _ | Atom.Type_error _) ->
    Unusable

and eval_call t env f args =
  let vargs = List.map (eval t env) args in
  match Builtins.call (builtin_ctx t env) f vargs with
  | Some result -> result
  | None -> (
    match Hashtbl.find_opt t.functions f with
    | None -> err "unknown function %s#%d" f (List.length args)
    | Some fd ->
      if List.length fd.params <> List.length vargs then
        err "function %s expects %d arguments, got %d" f
          (List.length fd.params) (List.length vargs);
      if env.depth >= t.max_call_depth then
        err "maximum call depth exceeded in %s" f;
      (* XQuery functions see globals but not the caller's locals or
         context. *)
      let vars =
        List.fold_left2
          (fun m (p, _) v -> Smap.add p v m)
          t.globals fd.params vargs
      in
      eval t { vars; ctx = None; depth = env.depth + 1 } fd.body)

and eval_ifp t env var seed body accum =
  let seed_v = eval t env seed in
  let external_result =
    match t.ifp_handler with
    | None -> None
    | Some handler ->
      (* The whole scope (locals and globals), not just fv(body):
         compiling the body may inline functions whose own bodies
         reference global variables. *)
      let bindings =
        Smap.fold
          (fun v value acc ->
            if String.equal v var then acc else (v, value) :: acc)
          env.vars []
      in
      let context =
        match env.ctx with Some (it, _, _) -> Some it | None -> None
      in
      handler
        { ifp_var = var; ifp_seed = seed_v; ifp_body = body;
          ifp_accum = accum; ifp_bindings = bindings; ifp_context = context }
  in
  match external_result with
  | Some result -> result
  | None -> (
    match accum with
    | Some a when a.kind <> Semiring.Bool ->
      eval_ifp_annotated t env var seed_v body a
    | _ ->
      let body_fn input =
        eval t { env with vars = Smap.add var input env.vars } body
      in
      let use_delta =
        match t.strategy with
        | Naive -> false
        | Delta -> true
        | Auto ->
          Distributivity.check ~functions:t.functions
            ~stratified:t.stratified var body
      in
      t.last_ifp_used_delta <- Some use_delta;
      let fixpoint = if use_delta then Fixpoint.delta else Fixpoint.naive in
      let result =
        fixpoint ~max_iterations:t.max_iterations ~stats:t.stats ~body:body_fn
          ~seed:seed_v ()
      in
      (* [accumulate by bool] is the plain IFP, every node annotated Mark *)
      if Option.is_some accum then
        t.last_annotations <-
          Some
            ( Semiring.Bool,
              List.map (fun it -> (Annot_acc.node_of it, Semiring.Mark)) result
            );
      result)

(* [accumulate by] a weighted or counting semiring: the {!Annot_acc}
   instance of the kernel, Delta only. The body is fed one frontier
   node at a time so each produced node's annotation is ⊗-extended
   from its source's — candidate = src_ann ⊗ weight(produced) — and
   the next frontier is exactly the set of strict ⊕-improvements: for
   [min] this is Bellman-Ford over the derivation graph, for [count]
   the increments propagate path multiplicities, for [why] the newly
   discovered witnesses. Seeds carry {!Semiring.seed_ann} but (as in
   the paper's loop) only enter the result if the body derives them. *)
and eval_ifp_annotated t env var seed_v body a =
  let kind = a.kind in
  let acc = Annot_acc.create kind in
  let weight_of =
    match weight_fn t env a with
    | Some w when Semiring.takes_weight kind -> fun n -> Some (w n)
    | _ -> fun _ -> None
  in
  let feed (src, src_ann) =
    List.map
      (fun it ->
        let n = Annot_acc.node_of it in
        (n, Semiring.extend kind src_ann (weight_of n)))
      (eval t { env with vars = Smap.add var [ Item.N src ] env.vars } body)
  in
  let absorb out =
    let fresh = Annot_acc.absorb acc out in
    (fresh, List.length fresh, List.length out)
  in
  let frontier =
    List.map
      (fun it ->
        let n = Annot_acc.node_of it in
        (n, Semiring.seed_ann kind n))
      seed_v
  in
  ignore
    (Fixpoint.run ~max_iterations:t.max_iterations ~stats:t.stats
       ~body:(List.concat_map feed) ~absorb
       ~size:(fun () -> Annot_acc.size acc)
       (Fixpoint.Resume (frontier, List.length frontier)));
  t.last_ifp_used_delta <- Some true;
  let entries = Annot_acc.entries acc in
  t.last_annotations <- Some (kind, entries);
  List.map (fun (n, _) -> Item.N n) entries

(* The weight expression of [min]/[max] is evaluated once per produced
   node, with that node as the context item (the recursion variable is
   not in scope). It must yield a single number. *)
and weight_fn t env (a : Ast.accum) =
  match a.weight with
  | None -> None
  | Some we ->
    Some
      (fun n ->
        let env' = { env with ctx = Some (Item.N n, 1, 1) } in
        match Item.atomize (eval t env' we) with
        | [ atom ] -> Atom.to_number atom
        | [] -> err "accumulate by: the weight expression yielded ()"
        | _ -> err "accumulate by: the weight expression is not a singleton")

(* ------------------------------------------------------------------ *)
(* Program interface                                                   *)
(* ------------------------------------------------------------------ *)

let initial_env t ?(vars = []) ?context () =
  let vmap =
    List.fold_left (fun m (k, v) -> Smap.add k v m) t.globals vars
  in
  let ctx = Option.map (fun it -> (it, 1, 1)) context in
  { vars = vmap; ctx; depth = 0 }

let load_prolog t (p : program) =
  List.iter (fun fd -> Hashtbl.replace t.functions fd.fname fd) p.functions;
  List.iter
    (fun (v, e) ->
      let value = eval t (initial_env t ()) e in
      t.globals <- Smap.add v value t.globals)
    p.variables

let run_program t (p : program) =
  load_prolog t p;
  eval t (initial_env t ()) p.main

let eval_expr t ?vars ?context e = eval t (initial_env t ?vars ?context ()) e

let run_string t src = run_program t (Parser.parse_program src)
