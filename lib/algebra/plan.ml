type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type prim =
  | P_cmp of cmp
  | P_arith of Fixq_lang.Ast.arith
  | P_and
  | P_or
  | P_not
  | P_data
  | P_name
  | P_root
  | P_ebv
  | P_const of Value.t

type agg = A_count | A_sum | A_max | A_min

type join_pred = {
  equi : (string * string) list;
  theta : (string * cmp * string) list;
}

type agg_spec = {
  agg_result : string;
  agg_input : string option;
  agg_partition : string option;
}

type fun_spec = { fun_result : string; fun_args : string list }

type num_spec = {
  num_result : string;
  num_order : string list;
  num_partition : string option;
}

type t =
  | Lit_table of string list * Value.t array list
  | Doc of string
  | Fix_ref of int * string list
  | Project of (string * string) list * t
  | Select of string * t
  | Join of join_pred * t * t
  | Cross of t * t
  | Distinct of t
  | Union of t * t
  | Difference of t * t
  | Aggr of agg * agg_spec * t
  | Fun of prim * fun_spec * t
  | Tag of string * t
  | Row_num of num_spec * t
  | Step of Fixq_xdm.Axis.t * Fixq_xdm.Axis.test * string * t
  | Id_join of t * t
  | Construct of string * t
  | Mu of fix
  | Mu_delta of fix
  | Template of string * t
  | Iterate of iterate

and fix = { fix_id : int; seed : t; body : t }

and iterate = {
  it_name : string;
  it_source : t;
  it_map : t;
  it_result : t;
}

let op_symbol = function
  | Lit_table _ -> "table"
  | Doc uri -> "doc(" ^ uri ^ ")"
  | Fix_ref (i, _) -> Printf.sprintf "R%d" i
  | Project (cols, _) ->
    "π" ^ String.concat "," (List.map (fun (n, o) ->
        if n = o then n else n ^ ":" ^ o) cols)
  | Select (c, _) -> "σ" ^ c
  | Join _ -> "⋈"
  | Cross _ -> "×"
  | Distinct _ -> "δ"
  | Union _ -> "∪"
  | Difference _ -> "\\"
  | Aggr (A_count, s, _) ->
    "count" ^ (match s.agg_partition with None -> "" | Some p -> "/" ^ p)
  | Aggr (A_sum, _, _) -> "sum"
  | Aggr (A_max, _, _) -> "max"
  | Aggr (A_min, _, _) -> "min"
  | Fun (p, s, _) ->
    let sym =
      match p with
      | P_cmp Ceq -> "=" | P_cmp Cne -> "≠" | P_cmp Clt -> "<"
      | P_cmp Cle -> "≤" | P_cmp Cgt -> ">" | P_cmp Cge -> "≥"
      | P_arith Fixq_lang.Ast.Add -> "+"
      | P_arith Fixq_lang.Ast.Sub -> "-"
      | P_arith Fixq_lang.Ast.Mul -> "*"
      | P_arith Fixq_lang.Ast.Div -> "÷"
      | P_arith Fixq_lang.Ast.Idiv -> "idiv"
      | P_arith Fixq_lang.Ast.Mod -> "mod"
      | P_and -> "∧" | P_or -> "∨" | P_not -> "¬"
      | P_data -> "data" | P_name -> "name"
      | P_root -> "root" | P_ebv -> "ebv"
      | P_const v -> Format.asprintf "const %a" Value.pp v
    in
    "⊚" ^ s.fun_result ^ ":" ^ sym
  | Tag (c, _) -> "#" ^ c
  | Row_num _ -> "̺"
  | Step (axis, test, _, _) ->
    Format.asprintf "%s::%a" (Fixq_xdm.Axis.axis_to_string axis)
      Fixq_xdm.Axis.pp_test test
  | Id_join _ -> "⋈id"
  | Construct (k, _) -> "ε:" ^ k
  | Mu _ -> "µ"
  | Mu_delta _ -> "µ∆"
  | Template (n, _) -> "«" ^ n ^ "»"
  | Iterate it -> "«" ^ it.it_name ^ "»"

(* The Push? column of Table 1: operators that must consume their whole
   input to produce any output block the ∪ push-up. *)
let push_through = function
  | Project _ | Select _ | Fun _ | Tag _ | Step _ -> true
  | Join _ | Cross _ | Union _ | Id_join _ -> true
  | Distinct _ | Difference _ | Aggr _ | Row_num _ | Construct _ -> false
  | Mu _ | Mu_delta _ -> true  (* µ itself admits the push (Table 1) *)
  | Lit_table _ | Doc _ | Fix_ref _ -> true
  | Template _ | Iterate _ -> true  (* decided by the big-step check, see Push *)

let children = function
  | Lit_table _ | Doc _ | Fix_ref _ -> []
  | Project (_, p) | Select (_, p) | Distinct p | Aggr (_, _, p)
  | Fun (_, _, p) | Tag (_, p) | Row_num (_, p) | Step (_, _, _, p)
  | Construct (_, p) | Template (_, p) ->
    [ p ]
  | Join (_, a, b) | Cross (a, b) | Union (a, b) | Difference (a, b)
  | Id_join (a, b) ->
    [ a; b ]
  | Mu f | Mu_delta f -> [ f.seed; f.body ]
  | Iterate it -> [ it.it_result ]

let tag_counter = ref 0

let fresh_fix_id () =
  incr tag_counter;
  !tag_counter

let bad fmt = Format.kasprintf invalid_arg fmt

let schema_with schema_of = function
  | Lit_table (schema, _) -> schema
  | Doc _ -> [ "item" ]
  | Fix_ref (_, schema) -> schema
  | Project (cols, p) ->
    let s = schema_of p in
    List.iter
      (fun (_, old) ->
        if not (List.mem old s) then bad "π: unknown column %s" old)
      cols;
    List.map fst cols
  | Select (c, p) ->
    let s = schema_of p in
    if not (List.mem c s) then bad "σ: unknown column %s" c;
    s
  | Join (pred, a, b) ->
    let sa = schema_of a and sb = schema_of b in
    List.iter
      (fun (lc, rc) ->
        if not (List.mem lc sa) then bad "⋈: unknown left column %s" lc;
        if not (List.mem rc sb) then bad "⋈: unknown right column %s" rc)
      pred.equi;
    sa @ List.map (fun c -> if List.mem c sa then c ^ "'" else c) sb
  | Cross (a, b) ->
    let sa = schema_of a and sb = schema_of b in
    sa @ List.map (fun c -> if List.mem c sa then c ^ "'" else c) sb
  | Distinct p -> schema_of p
  | Union (a, b) | Difference (a, b) ->
    let sa = schema_of a and sb = schema_of b in
    if List.sort compare sa <> List.sort compare sb then
      bad "∪/\\: schema mismatch";
    sa
  | Aggr (_, spec, p) ->
    let s = schema_of p in
    (match spec.agg_input with
    | Some c when not (List.mem c s) -> bad "aggr: unknown column %s" c
    | _ -> ());
    (match spec.agg_partition with
    | None -> [ spec.agg_result ]
    | Some part ->
      if not (List.mem part s) then bad "aggr: unknown partition %s" part;
      [ part; spec.agg_result ])
  | Fun (_, spec, p) ->
    let s = schema_of p in
    List.iter
      (fun c -> if not (List.mem c s) then bad "⊚: unknown column %s" c)
      spec.fun_args;
    s @ [ spec.fun_result ]
  | Tag (c, p) -> schema_of p @ [ c ]
  | Row_num (spec, p) -> schema_of p @ [ spec.num_result ]
  | Step (_, _, item, p) ->
    let s = schema_of p in
    if not (List.mem item s) then bad "step: unknown column %s" item;
    s
  | Id_join (ctx, arg) ->
    let sc = schema_of ctx and sa = schema_of arg in
    if not (List.mem "item" sc) then bad "id: ctx plan lacks item";
    if not (List.mem "item" sa) then bad "id: arg plan lacks item";
    sa
  | Construct (_, _) -> [ "iter"; "item" ]
  | Mu f | Mu_delta f ->
    let s = schema_of f.seed in
    let sb = schema_of f.body in
    if List.sort compare s <> List.sort compare sb then
      bad "µ: seed and body schemas differ";
    s
  | Template (_, p) -> schema_of p
  | Iterate it -> schema_of it.it_result

let rec schema_of p = schema_with schema_of p
