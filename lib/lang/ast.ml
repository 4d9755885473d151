(** Abstract syntax of the [fixq] XQuery subset.

    The language is LiXQuery-class (Hidders et al., SIGMOD Record 2005):
    FLWOR with [for]/[let]/[where], quantifiers, conditionals,
    [typeswitch], path expressions, node and value comparisons, node-set
    operators, arithmetic, user-defined functions, direct and computed
    node constructors — extended with the paper's inflationary fixed
    point form

    {v with $x seeded by e_seed recurse e_rec v}

    Paths are binary ([Path (e1, e2)]): [e2] is evaluated once per
    context item drawn from [e1], results are merged by
    [fs:distinct-doc-order]. This is the generality the distributivity
    rules STEP1/STEP2 of the paper assume. *)

module Axis = Fixq_xdm.Axis
module Atom = Fixq_xdm.Atom

type cmp = Eq | Ne | Lt | Le | Gt | Ge [@@deriving show { with_path = false }, eq]

type arith = Add | Sub | Mul | Div | Idiv | Mod
[@@deriving show { with_path = false }, eq]

type quantifier = Some_ | Every [@@deriving show { with_path = false }, eq]

(** Sequence types for [typeswitch] (and function signatures, where they
    are parsed but not dynamically enforced beyond node-ness checks). *)
type item_type =
  | It_item
  | It_node
  | It_element of string option
  | It_attribute of string option
  | It_text
  | It_comment
  | It_document
  | It_atomic of string  (** ["integer"], ["string"], ["boolean"], ["double"] *)
[@@deriving show { with_path = false }, eq]

type occurrence = One | Opt | Star | Plus
[@@deriving show { with_path = false }, eq]

type seq_type =
  | Empty_sequence
  | Typed of item_type * occurrence
[@@deriving show { with_path = false }, eq]

type axis_step = { axis : Axis.t; test : Axis.test }

let pp_axis_step ppf s =
  Format.fprintf ppf "%s::%a" (Axis.axis_to_string s.axis) Axis.pp_test s.test

let show_axis_step s = Format.asprintf "%a" pp_axis_step s

let equal_axis_step a b = a.axis = b.axis && a.test = b.test

(** Attribute content in direct element constructors: literal pieces and
    embedded expressions. *)
type 'e attr_piece = A_lit of string | A_expr of 'e
[@@deriving show { with_path = false }, eq]

type expr =
  | Literal of (Atom.t[@printer Atom.pp] [@equal Atom.equal_value])
  | Empty_seq  (** [()] *)
  | Var of string
  | Context_item  (** [.] *)
  | Root  (** leading [/] — root of the context node's tree *)
  | Sequence of expr * expr  (** [e1, e2] *)
  | Union of expr * expr
  | Except of expr * expr
  | Intersect of expr * expr
  | Path of expr * expr  (** [e1/e2] *)
  | Axis_step of axis_step  (** relative step, e.g. [child::a] *)
  | Filter of expr * expr  (** [e1\[e2\]] *)
  | For of { var : string; pos : string option; source : expr; body : expr }
  | Sort of { var : string; source : expr; key : expr; descending : bool; body : expr }
      (** restricted [order by]: a single-[for] FLWOR sorted by a
          per-binding key before the return clause evaluates *)
  | Let of { var : string; value : expr; body : expr }
  | If of expr * expr * expr
  | Quantified of quantifier * string * expr * expr
      (** [some $v in e satisfies e'] *)
  | Arith of arith * expr * expr
  | Neg of expr
  | Gen_cmp of cmp * expr * expr  (** existential comparisons [= != < …] *)
  | Val_cmp of cmp * expr * expr  (** [eq ne lt le gt ge] *)
  | Node_is of expr * expr
  | Node_before of expr * expr  (** [<<] *)
  | Node_after of expr * expr  (** [>>] *)
  | And of expr * expr
  | Or of expr * expr
  | Range of expr * expr  (** [e1 to e2] *)
  | Call of string * expr list
  | Elem_constr of string * (string * expr attr_piece list) list * expr list
      (** direct element constructor: name, attributes, content; text
          runs appear as [Literal (Str …)] wrapped by {!Text_constr} *)
  | Comp_elem of string * expr  (** [element n { e }] *)
  | Text_constr of expr  (** [text { e }] *)
  | Attr_constr of string * expr  (** [attribute n { e }] *)
  | Comment_constr of expr
  | Doc_constr of expr  (** [document { e }] *)
  | Instance_of of expr * seq_type  (** [e instance of T] *)
  | Cast of expr * string * bool
      (** [e cast as xs:T\[?\]]: atomic target type name, optional flag *)
  | Castable of expr * string * bool  (** [e castable as xs:T\[?\]] *)
  | Typeswitch of expr * (seq_type * string option * expr) list * string option * expr
      (** scrutinee, cases (type, optional case variable, body), default
          variable, default body *)
  | Ifp of { var : string; seed : expr; body : expr; accum : accum option }
      (** [with $var seeded by seed recurse body], optionally followed
          by [accumulate by kind(weight)] — a semiring annotation on
          every accumulated node *)

(** The [accumulate by] clause of an IFP: the annotation semiring and,
    for [min]/[max], the per-node weight expression (evaluated with the
    produced node as the context item). *)
and accum = {
  kind :
    (Fixq_semiring.Semiring.kind
    [@printer Fixq_semiring.Semiring.pp_kind]
    [@equal Fixq_semiring.Semiring.equal_kind]);
  weight : expr option;
}
[@@deriving show { with_path = false }, eq]

(** A user-defined function declaration. Parameter and return types are
    recorded for documentation/round-tripping but are not enforced at
    run time (LiXQuery drops static typing). *)
type fundef = {
  fname : string;
  params : (string * seq_type option) list;
  return_type : seq_type option;
  body : expr;
}
[@@deriving show { with_path = false }, eq]

type program = {
  functions : fundef list;
  variables : (string * expr) list;  (** [declare variable $v := e;] *)
  main : expr;
}
[@@deriving show { with_path = false }, eq]

(** Free variables of an expression (the [fv(·)] of the paper). *)
let free_vars (e : expr) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let rec go bound = function
    | Literal _ | Empty_seq | Context_item | Root -> ()
    | Var v -> if not (List.mem v bound) then Hashtbl.replace tbl v ()
    | Sequence (a, b)
    | Union (a, b)
    | Except (a, b)
    | Intersect (a, b)
    | Path (a, b)
    | Filter (a, b)
    | Arith (_, a, b)
    | Gen_cmp (_, a, b)
    | Val_cmp (_, a, b)
    | Node_is (a, b)
    | Node_before (a, b)
    | Node_after (a, b)
    | And (a, b)
    | Or (a, b)
    | Range (a, b) ->
      go bound a;
      go bound b
    | Neg a | Text_constr a | Attr_constr (_, a) | Comment_constr a
    | Doc_constr a | Comp_elem (_, a) | Instance_of (a, _)
    | Cast (a, _, _) | Castable (a, _, _) ->
      go bound a
    | Axis_step _ -> ()
    | For { var; pos; source; body } ->
      go bound source;
      let bound = var :: (match pos with Some p -> [ p ] | None -> []) @ bound in
      go bound body
    | Sort { var; source; key; body; _ } ->
      go bound source;
      go (var :: bound) key;
      go (var :: bound) body
    | Let { var; value; body } ->
      go bound value;
      go (var :: bound) body
    | If (c, t, e) ->
      go bound c;
      go bound t;
      go bound e
    | Quantified (_, v, source, pred) ->
      go bound source;
      go (v :: bound) pred
    | Call (_, args) -> List.iter (go bound) args
    | Elem_constr (_, attrs, content) ->
      List.iter
        (fun (_, pieces) ->
          List.iter
            (function A_lit _ -> () | A_expr e -> go bound e)
            pieces)
        attrs;
      List.iter (go bound) content
    | Typeswitch (scrut, cases, dvar, dbody) ->
      go bound scrut;
      List.iter
        (fun (_, v, body) ->
          let bound = match v with Some v -> v :: bound | None -> bound in
          go bound body)
        cases;
      let bound = match dvar with Some v -> v :: bound | None -> bound in
      go bound dbody
    | Ifp { var; seed; body; accum } ->
      go bound seed;
      (match accum with
      | Some { weight = Some w; _ } -> go bound w
      | _ -> ());
      go (var :: bound) body
  in
  go [] e;
  tbl

let is_free v e = Hashtbl.mem (free_vars e) v

(** Does the expression syntactically contain a node constructor
    (anywhere, including under binders)? Constructors create fresh node
    identities and void distributivity and IFP-termination guarantees. *)
let rec has_constructor = function
  | Elem_constr _ | Comp_elem _ | Text_constr _ | Attr_constr _
  | Comment_constr _ | Doc_constr _ ->
    true
  | Literal _ | Empty_seq | Var _ | Context_item | Root | Axis_step _ -> false
  | Sequence (a, b)
  | Union (a, b)
  | Except (a, b)
  | Intersect (a, b)
  | Path (a, b)
  | Filter (a, b)
  | Arith (_, a, b)
  | Gen_cmp (_, a, b)
  | Val_cmp (_, a, b)
  | Node_is (a, b)
  | Node_before (a, b)
  | Node_after (a, b)
  | And (a, b)
  | Or (a, b)
  | Range (a, b) ->
    has_constructor a || has_constructor b
  | Neg a | Instance_of (a, _) | Cast (a, _, _) | Castable (a, _, _) ->
    has_constructor a
  | For { source; body; _ } -> has_constructor source || has_constructor body
  | Sort { source; key; body; _ } ->
    has_constructor source || has_constructor key || has_constructor body
  | Let { value; body; _ } -> has_constructor value || has_constructor body
  | If (c, t, e) -> has_constructor c || has_constructor t || has_constructor e
  | Quantified (_, _, s, p) -> has_constructor s || has_constructor p
  | Call (_, args) -> List.exists has_constructor args
  | Typeswitch (s, cases, _, d) ->
    has_constructor s
    || List.exists (fun (_, _, b) -> has_constructor b) cases
    || has_constructor d
  | Ifp { seed; body; accum; _ } ->
    has_constructor seed || has_constructor body
    || (match accum with
       | Some { weight = Some w; _ } -> has_constructor w
       | _ -> false)

(** Is the value of [e] guaranteed never to be a single numeric atom?
    Filter predicates treat exactly that shape as an implicit position
    test, so rewrites that change a step's context positions (e.g.
    [//t\[p\]] → [descendant::t\[p\]]) are only sound for predicates
    that are surely boolean-valued. Conservative: [false] means
    "don't know". *)
let rec surely_boolean = function
  | Gen_cmp _ | Val_cmp _ | And _ | Or _ | Quantified _ | Instance_of _
  | Castable _ | Node_is _ | Node_before _ | Node_after _ ->
    true
  | Literal (Atom.Bool _) -> true
  | Call
      ( ( "not" | "empty" | "exists" | "boolean" | "true" | "false"
        | "contains" | "starts-with" | "ends-with" ),
        _ ) ->
    true
  | If (_, a, b) -> surely_boolean a && surely_boolean b
  | Let { body; _ } -> surely_boolean body
  | _ -> false

(** Does [e] syntactically mention [fn:position()] or [fn:last()]
    (anywhere, including under binders)? Such predicates observe the
    context sequence a step produced, so they block the [//] collapse
    above. *)
let rec calls_position_or_last = function
  | Call (("position" | "last"), _) -> true
  | Call (_, args) -> List.exists calls_position_or_last args
  | Literal _ | Empty_seq | Var _ | Context_item | Root | Axis_step _ -> false
  | Sequence (a, b)
  | Union (a, b)
  | Except (a, b)
  | Intersect (a, b)
  | Path (a, b)
  | Filter (a, b)
  | Arith (_, a, b)
  | Gen_cmp (_, a, b)
  | Val_cmp (_, a, b)
  | Node_is (a, b)
  | Node_before (a, b)
  | Node_after (a, b)
  | And (a, b)
  | Or (a, b)
  | Range (a, b) ->
    calls_position_or_last a || calls_position_or_last b
  | Neg a | Instance_of (a, _) | Cast (a, _, _) | Castable (a, _, _)
  | Comp_elem (_, a) | Text_constr a | Attr_constr (_, a)
  | Comment_constr a | Doc_constr a ->
    calls_position_or_last a
  | For { source; body; _ } ->
    calls_position_or_last source || calls_position_or_last body
  | Sort { source; key; body; _ } ->
    calls_position_or_last source
    || calls_position_or_last key
    || calls_position_or_last body
  | Let { value; body; _ } ->
    calls_position_or_last value || calls_position_or_last body
  | If (c, t, e) ->
    calls_position_or_last c
    || calls_position_or_last t
    || calls_position_or_last e
  | Quantified (_, _, s, p) ->
    calls_position_or_last s || calls_position_or_last p
  | Elem_constr (_, attrs, content) ->
    List.exists
      (fun (_, pieces) ->
        List.exists
          (function A_lit _ -> false | A_expr e -> calls_position_or_last e)
          pieces)
      attrs
    || List.exists calls_position_or_last content
  | Typeswitch (s, cases, _, d) ->
    calls_position_or_last s
    || List.exists (fun (_, _, b) -> calls_position_or_last b) cases
    || calls_position_or_last d
  | Ifp { seed; body; accum; _ } ->
    calls_position_or_last seed || calls_position_or_last body
    || (match accum with
       | Some { weight = Some w; _ } -> calls_position_or_last w
       | _ -> false)

(** The immediate subexpressions of [e], binders ignored: the one
    canonical child enumeration for whole-expression walks. *)
let subexprs = function
  | Sequence (a, b)
  | Union (a, b)
  | Except (a, b)
  | Intersect (a, b)
  | Path (a, b)
  | Filter (a, b)
  | Arith (_, a, b)
  | Gen_cmp (_, a, b)
  | Val_cmp (_, a, b)
  | Node_is (a, b)
  | Node_before (a, b)
  | Node_after (a, b)
  | And (a, b)
  | Or (a, b)
  | Range (a, b) ->
    [ a; b ]
  | Neg a | Text_constr a | Attr_constr (_, a) | Comment_constr a
  | Doc_constr a | Comp_elem (_, a) | Instance_of (a, _) | Cast (a, _, _)
  | Castable (a, _, _) ->
    [ a ]
  | For { source; body; _ } -> [ source; body ]
  | Sort { source; key; body; _ } -> [ source; key; body ]
  | Let { value; body; _ } -> [ value; body ]
  | If (a, b, c) -> [ a; b; c ]
  | Quantified (_, _, a, b) -> [ a; b ]
  | Call (_, args) -> args
  | Elem_constr (_, attrs, content) ->
    List.concat_map
      (fun (_, pieces) ->
        List.filter_map
          (function A_lit _ -> None | A_expr e -> Some e)
          pieces)
      attrs
    @ content
  | Typeswitch (s, cases, _, d) ->
    (s :: List.map (fun (_, _, b) -> b) cases) @ [ d ]
  | Ifp { seed; body; accum; _ } -> (
    seed :: body
    :: (match accum with Some { weight = Some w; _ } -> [ w ] | _ -> []))
  | Literal _ | Empty_seq | Var _ | Context_item | Root | Axis_step _ -> []

(** Capture-avoiding-enough substitution [e1\[e2/$x\]] — the paper's
    [e1(e2)]. Inner rebindings of [$x] shadow as expected; we do not
    rename other binders, so callers must ensure [e2]'s free variables
    are not captured (all uses in this codebase substitute fresh or
    closed expressions). *)
let rec subst x replacement e =
  let s = subst x replacement in
  match e with
  | Var v -> if String.equal v x then replacement else e
  | Literal _ | Empty_seq | Context_item | Root | Axis_step _ -> e
  | Sequence (a, b) -> Sequence (s a, s b)
  | Union (a, b) -> Union (s a, s b)
  | Except (a, b) -> Except (s a, s b)
  | Intersect (a, b) -> Intersect (s a, s b)
  | Path (a, b) -> Path (s a, s b)
  | Filter (a, b) -> Filter (s a, s b)
  | Arith (op, a, b) -> Arith (op, s a, s b)
  | Neg a -> Neg (s a)
  | Gen_cmp (c, a, b) -> Gen_cmp (c, s a, s b)
  | Val_cmp (c, a, b) -> Val_cmp (c, s a, s b)
  | Node_is (a, b) -> Node_is (s a, s b)
  | Node_before (a, b) -> Node_before (s a, s b)
  | Node_after (a, b) -> Node_after (s a, s b)
  | And (a, b) -> And (s a, s b)
  | Or (a, b) -> Or (s a, s b)
  | Range (a, b) -> Range (s a, s b)
  | Call (f, args) -> Call (f, List.map s args)
  | For { var; pos; source; body } ->
    let body =
      if String.equal var x || pos = Some x then body else s body
    in
    For { var; pos; source = s source; body }
  | Sort { var; source; key; descending; body } ->
    let sub_in e = if String.equal var x then e else s e in
    Sort
      { var; source = s source; key = sub_in key; descending;
        body = sub_in body }
  | Let { var; value; body } ->
    let body = if String.equal var x then body else s body in
    Let { var; value = s value; body }
  | If (c, t, e') -> If (s c, s t, s e')
  | Quantified (q, v, source, pred) ->
    let pred = if String.equal v x then pred else s pred in
    Quantified (q, v, s source, pred)
  | Elem_constr (n, attrs, content) ->
    let attrs =
      List.map
        (fun (an, pieces) ->
          ( an,
            List.map
              (function A_lit l -> A_lit l | A_expr e -> A_expr (s e))
              pieces ))
        attrs
    in
    Elem_constr (n, attrs, List.map s content)
  | Comp_elem (n, a) -> Comp_elem (n, s a)
  | Instance_of (a, ty) -> Instance_of (s a, ty)
  | Cast (a, ty, opt) -> Cast (s a, ty, opt)
  | Castable (a, ty, opt) -> Castable (s a, ty, opt)
  | Text_constr a -> Text_constr (s a)
  | Attr_constr (n, a) -> Attr_constr (n, s a)
  | Comment_constr a -> Comment_constr (s a)
  | Doc_constr a -> Doc_constr (s a)
  | Typeswitch (scrut, cases, dvar, dbody) ->
    let cases =
      List.map
        (fun (ty, v, body) ->
          let body = if v = Some x then body else s body in
          (ty, v, body))
        cases
    in
    let dbody = if dvar = Some x then dbody else s dbody in
    Typeswitch (s scrut, cases, dvar, dbody)
  | Ifp { var; seed; body; accum } ->
    let body = if String.equal var x then body else s body in
    let accum =
      Option.map
        (fun a -> { a with weight = Option.map s a.weight })
        accum
    in
    Ifp { var; seed = s seed; body; accum }

(** Fresh variable names for rewrites. *)
let fresh_var =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s_%d" prefix !n
