exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type colref = { tbl : string option; col : string }

type operand = Col of colref | Lit of Sqldb.value

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type select = {
  distinct : bool;
  columns : operand list;
  from : (string * string) list;
  where : (operand * cmp * operand) list;
}

type query = {
  rec_name : string;
  rec_columns : string list;
  seed : select;
  body : select;
  final : select;
}

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)
(* ------------------------------------------------------------------ *)

type token = Word of string | Str_lit of string | Int_lit of int | Sym of char

let tokenize src =
  let toks = ref [] in
  let n = String.length src in
  let i = ref 0 in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = '\'' then begin
      let j = ref (!i + 1) in
      let buf = Buffer.create 8 in
      let rec scan () =
        if !j >= n then err "unterminated string literal"
        else if src.[!j] = '\'' then
          if !j + 1 < n && src.[!j + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            j := !j + 2;
            scan ()
          end
          else j := !j + 1
        else begin
          Buffer.add_char buf src.[!j];
          incr j;
          scan ()
        end
      in
      scan ();
      toks := Str_lit (Buffer.contents buf) :: !toks;
      i := !j
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      toks := Int_lit (int_of_string (String.sub src !i (!j - !i))) :: !toks;
      i := !j
    end
    else if is_word c then begin
      let j = ref !i in
      while !j < n && is_word src.[!j] do
        incr j
      done;
      toks := Word (String.lowercase_ascii (String.sub src !i (!j - !i))) :: !toks;
      i := !j
    end
    else begin
      toks := Sym c :: !toks;
      incr i
    end
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type pstate = { mutable toks : token list }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let advance st =
  match st.toks with [] -> err "unexpected end of query" | _ :: r -> st.toks <- r

let expect_word st w =
  match peek st with
  | Some (Word x) when x = w -> advance st
  | _ -> err "expected %S" w

let expect_sym st c =
  match peek st with
  | Some (Sym x) when x = c -> advance st
  | _ -> err "expected %C" c

let word st =
  match peek st with
  | Some (Word w) ->
    advance st;
    w
  | _ -> err "expected an identifier"

let at_word st w = match peek st with Some (Word x) -> x = w | _ -> false

let parse_operand st =
  match peek st with
  | Some (Str_lit s) ->
    advance st;
    Lit (Sqldb.S s)
  | Some (Int_lit i) ->
    advance st;
    Lit (Sqldb.I i)
  | Some (Word w) ->
    advance st;
    if peek st = Some (Sym '.') then begin
      advance st;
      let col = word st in
      Col { tbl = Some w; col }
    end
    else Col { tbl = None; col = w }
  | _ -> err "expected a column reference or literal"

let parse_select_body st =
  expect_word st "select";
  let distinct =
    if at_word st "distinct" then begin
      advance st;
      true
    end
    else false
  in
  let columns =
    if peek st = Some (Sym '*') then begin
      advance st;
      []
    end
    else begin
      let rec cols acc =
        let c = parse_operand st in
        if peek st = Some (Sym ',') then begin
          advance st;
          cols (c :: acc)
        end
        else List.rev (c :: acc)
      in
      cols []
    end
  in
  expect_word st "from";
  let rec tables acc =
    let name = word st in
    let alias =
      match peek st with
      | Some (Word w)
        when w <> "where" && w <> "union" && w <> "select" ->
        advance st;
        w
      | _ -> name
    in
    if peek st = Some (Sym ',') then begin
      advance st;
      tables ((name, alias) :: acc)
    end
    else List.rev ((name, alias) :: acc)
  in
  let from = tables [] in
  let parse_cmp st =
    match peek st with
    | Some (Sym '=') ->
      advance st;
      Ceq
    | Some (Sym '<') ->
      advance st;
      (match peek st with
      | Some (Sym '>') ->
        advance st;
        Cne
      | Some (Sym '=') ->
        advance st;
        Cle
      | _ -> Clt)
    | Some (Sym '>') ->
      advance st;
      (match peek st with
      | Some (Sym '=') ->
        advance st;
        Cge
      | _ -> Cgt)
    | _ -> err "expected a comparison operator (=, <>, <, <=, >, >=)"
  in
  let where =
    if at_word st "where" then begin
      advance st;
      let rec conds acc =
        let l = parse_operand st in
        let cm = parse_cmp st in
        let r = parse_operand st in
        if at_word st "and" then begin
          advance st;
          conds ((l, cm, r) :: acc)
        end
        else List.rev ((l, cm, r) :: acc)
      in
      conds []
    end
    else []
  in
  { distinct; columns; from; where }

let parse_paren_select st =
  let parens = peek st = Some (Sym '(') in
  if parens then advance st;
  let s = parse_select_body st in
  if parens then expect_sym st ')';
  s

let parse src =
  let st = { toks = tokenize src } in
  expect_word st "with";
  expect_word st "recursive";
  let rec_name = word st in
  expect_sym st '(';
  let rec cols acc =
    let c = word st in
    if peek st = Some (Sym ',') then begin
      advance st;
      cols (c :: acc)
    end
    else List.rev (c :: acc)
  in
  let rec_columns = cols [] in
  expect_sym st ')';
  expect_word st "as";
  expect_sym st '(';
  let seed = parse_paren_select st in
  expect_word st "union";
  expect_word st "all";
  let body = parse_paren_select st in
  expect_sym st ')';
  let final = parse_select_body st in
  (match peek st with
  | Some (Sym ';') -> advance st
  | _ -> ());
  (match peek st with
  | None -> ()
  | Some _ -> err "trailing input after the final SELECT");
  { rec_name; rec_columns; seed; body; final }

let parse_select src =
  let st = { toks = tokenize src } in
  let s = parse_select_body st in
  (match peek st with
  | Some (Sym ';') -> advance st
  | _ -> ());
  (match peek st with None -> () | Some _ -> err "trailing input");
  s

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let is_linear q =
  let refs =
    List.length
      (List.filter
         (fun (name, _) -> String.lowercase_ascii name = String.lowercase_ascii q.rec_name)
         q.body.from)
  in
  refs <= 1

(* Evaluate a select against [db], with [extra] binding the recursive
   table name during iteration. *)
let eval_select ?extra (db : Sqldb.t) (s : select) : Sqldb.table =
  let resolve_table name =
    let lname = String.lowercase_ascii name in
    match extra with
    | Some (rn, t) when String.lowercase_ascii rn = lname -> t
    | _ -> (
      match Sqldb.find_table db name with
      | Some t -> t
      | None -> err "unknown table %S" name)
  in
  let tables = List.map (fun (name, alias) -> (alias, resolve_table name)) s.from in
  (* environment: alias → row *)
  let col_value env (r : colref) =
    let lookup alias (t : Sqldb.table) row =
      let rec idx i = function
        | [] -> None
        | c :: _ when String.lowercase_ascii c = String.lowercase_ascii r.col ->
          Some i
        | _ :: rest -> idx (i + 1) rest
      in
      ignore alias;
      Option.map (fun i -> List.nth row i) (idx 0 t.Sqldb.columns)
    in
    match r.tbl with
    | Some a -> (
      match List.assoc_opt a env with
      | None -> err "unknown table alias %S" a
      | Some (t, row) -> (
        match lookup a t row with
        | Some v -> v
        | None -> err "unknown column %s.%s" a r.col))
    | None -> (
      let hits =
        List.filter_map (fun (a, (t, row)) -> lookup a t row) env
      in
      match hits with
      | [ v ] -> v
      | [] -> err "unknown column %S" r.col
      | _ -> err "ambiguous column %S" r.col)
  in
  let operand_value env = function
    | Lit v -> v
    | Col r -> col_value env r
  in
  (* Ordering comparisons require operands of the same kind; SQL:1999 has
     no implicit string/number coercion in this subset. *)
  let order l r =
    match (l, r) with
    | (Sqldb.I a, Sqldb.I b) -> Int.compare a b
    | (Sqldb.S a, Sqldb.S b) -> String.compare a b
    | _ ->
      err "type mismatch in comparison: %a vs %a" Sqldb.pp_value l
        Sqldb.pp_value r
  in
  let cmp_holds cm l r =
    match cm with
    | Ceq -> Sqldb.value_equal l r
    | Cne -> not (Sqldb.value_equal l r)
    | Clt -> order l r < 0
    | Cle -> order l r <= 0
    | Cgt -> order l r > 0
    | Cge -> order l r >= 0
  in
  (* Predicate pushdown: each WHERE conjunct runs at the outermost level
     of the FROM nesting where every column it references is bound, so
     the product enumeration prunes eagerly instead of filtering only
     completed rows — the chain equalities WITH RECURSIVE bodies emit
     turn the nested loop into a join. Row order is unchanged: the
     surviving leaves appear in the same nesting order. Conjuncts whose
     columns are unknown or ambiguous stay at the innermost level, where
     evaluation raises the same errors as before. *)
  let n_tables = List.length tables in
  let level_of_operand = function
    | Lit _ -> Some (-1)
    | Col { tbl = Some a; _ } ->
      let la = String.lowercase_ascii a in
      let (_, last) =
        List.fold_left
          (fun (i, acc) (a', _) ->
            ( i + 1,
              if String.lowercase_ascii a' = la then Some i else acc ))
          (0, None) tables
      in
      last
    | Col { tbl = None; col } ->
      let lcol = String.lowercase_ascii col in
      let holders =
        List.mapi (fun i e -> (i, e)) tables
        |> List.filter (fun (_, (_, (t : Sqldb.table))) ->
               List.exists
                 (fun c -> String.lowercase_ascii c = lcol)
                 t.Sqldb.columns)
      in
      (match holders with [ (i, _) ] -> Some i | _ -> None)
  in
  let pred_level (l, _, r) =
    match (level_of_operand l, level_of_operand r) with
    | (Some a, Some b) -> max a b
    | _ -> n_tables - 1
  in
  let preds_at = Array.make (max 1 n_tables) [] in
  let pre = ref [] in
  List.iter
    (fun p ->
      let lv = pred_level p in
      if lv < 0 then pre := p :: !pre else preds_at.(lv) <- p :: preds_at.(lv))
    s.where;
  Array.iteri (fun i l -> preds_at.(i) <- List.rev l) preds_at;
  let holds env (l, cm, r) =
    cmp_holds cm (operand_value env l) (operand_value env r)
  in
  (* Hash-join narrowing: when a level carries a pushed equality between
     one of its own columns and an operand bound earlier, bucket the
     table's rows by that column and enumerate only the matching bucket.
     Because [Sqldb.value_equal] coerces between [S] and [I] spellings
     (and is not transitive), an [S] cell that also reads as an integer
     is bucketed under both spellings and the bucket is only a candidate
     pre-filter — every WHERE conjunct is still checked per row, so the
     result is bit-for-bit what the plain scan produces. *)
  let keys_of = function
    | Sqldb.I _ as v -> [ v ]
    | Sqldb.S str as v -> (
      match int_of_string_opt str with
      | Some i -> [ v; Sqldb.I i ]
      | None -> [ v ])
  in
  let col_index_in (t : Sqldb.table) col =
    let lcol = String.lowercase_ascii col in
    let rec idx i = function
      | [] -> None
      | c :: _ when String.lowercase_ascii c = lcol -> Some i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 t.Sqldb.columns
  in
  let tables_arr = Array.of_list tables in
  let index_at =
    Array.init (max 1 n_tables) (fun i ->
        if i >= n_tables then None
        else
          let (_, t) = tables_arr.(i) in
          let local op =
            match op with
            | Col { col; _ } when level_of_operand op = Some i ->
              col_index_in t col
            | _ -> None
          in
          let earlier op =
            match level_of_operand op with Some l -> l < i | None -> false
          in
          let eligible = function
            | (l, Ceq, r) -> (
              match (local l, earlier r) with
              | (Some ci, true) -> Some (ci, r)
              | _ -> (
                match (local r, earlier l) with
                | (Some ci, true) -> Some (ci, l)
                | _ -> None))
            | _ -> None
          in
          match List.find_map eligible preds_at.(i) with
          | None -> None
          | Some (ci, outer) ->
            let buckets = Hashtbl.create 64 in
            List.iteri
              (fun ri row ->
                List.iter
                  (fun k ->
                    Hashtbl.replace buckets k
                      ((ri, row)
                      ::
                      (match Hashtbl.find_opt buckets k with
                      | Some l -> l
                      | None -> [])))
                  (keys_of (List.nth row ci)))
              t.Sqldb.rows;
            Hashtbl.filter_map_inplace
              (fun _ l -> Some (List.rev l))
              buckets;
            Some (outer, buckets))
  in
  (* Merge two idx-sorted candidate lists, dropping duplicate rows. *)
  let rec merge a b =
    match (a, b) with
    | ([], l) | (l, []) -> l
    | (((ia, _) as x) :: ta, ((ib, _) as y) :: tb) ->
      if ia < ib then x :: merge ta b
      else if ib < ia then y :: merge a tb
      else x :: merge ta tb
  in
  let out = ref [] in
  let rec product i env = function
    | [] ->
      let row =
        if s.columns = [] then
          List.concat_map (fun (_, (_, row)) -> row) (List.rev env)
        else List.map (operand_value env) s.columns
      in
      out := row :: !out
    | (alias, t) :: rest ->
      let visit row =
        let env = (alias, (t, row)) :: env in
        if List.for_all (holds env) preds_at.(i) then product (i + 1) env rest
      in
      (match index_at.(i) with
      | Some (outer, buckets) ->
        let cands =
          List.fold_left
            (fun acc k ->
              match Hashtbl.find_opt buckets k with
              | Some l -> merge acc l
              | None -> acc)
            []
            (keys_of (operand_value env outer))
        in
        List.iter (fun (_, row) -> visit row) cands
      | None -> List.iter visit t.Sqldb.rows)
  in
  if List.for_all (holds []) (List.rev !pre) then product 0 [] tables;
  let columns =
    if s.columns = [] then
      List.concat_map (fun (alias, t) ->
          List.map (fun c -> alias ^ "." ^ c) t.Sqldb.columns)
        tables
    else
      List.map
        (function
          | Col r -> r.col
          | Lit _ -> "?")
        s.columns
  in
  let t = { Sqldb.columns; rows = List.rev !out } in
  if s.distinct then Sqldb.distinct t else t

let run_select db s = eval_select db s

type algorithm = Naive | Delta

type run = { result : Sqldb.table; iterations : int; rows_fed : int }

let run ?(enforce_linearity = true) ?max_iterations
    ?(stats = Fixq_lang.Stats.create ()) ~algorithm db q =
  if enforce_linearity && not (is_linear q) then
    err
      "SQL:1999 linearity violation: %s is referenced more than once in \
       the recursive body"
      q.rec_name;
  let with_cols (t : Sqldb.table) =
    if List.length t.Sqldb.columns <> List.length q.rec_columns then
      err "recursive table %s has %d columns, select yields %d" q.rec_name
        (List.length q.rec_columns)
        (List.length t.Sqldb.columns);
    { t with Sqldb.columns = q.rec_columns }
  in
  let seed = Sqldb.distinct (with_cols (eval_select db q.seed)) in
  let apply (input : Sqldb.table) =
    Sqldb.distinct
      (with_cols (eval_select ~extra:(q.rec_name, input) db q.body))
  in
  (* The table instance of the fixpoint kernel: the recursive table
     starts as the seed (the seed select is e_rec applied to e_seed)
     and each round appends the rows it had not seen. *)
  let res = ref seed in
  let size = ref (List.length seed.Sqldb.rows) in
  let absorb (out : Sqldb.table) =
    let fresh = Sqldb.difference out !res in
    let fresh_n = List.length fresh.Sqldb.rows in
    res := { !res with Sqldb.rows = !res.Sqldb.rows @ fresh.Sqldb.rows };
    size := !size + fresh_n;
    (fresh, fresh_n, List.length out.Sqldb.rows)
  in
  let iterations =
    Fixq_lang.Fixpoint.run ?max_iterations
      ?whole:
        (match algorithm with Naive -> Some (fun () -> !res) | Delta -> None)
      ~stats ~body:apply ~absorb
      ~size:(fun () -> !size)
      (Fixq_lang.Fixpoint.Resume (seed, !size))
  in
  let rows_fed =
    List.fold_left
      (fun acc it -> acc + it.Fixq_lang.Stats.fed)
      0 (Fixq_lang.Stats.last_run stats)
  in
  let result = eval_select ~extra:(q.rec_name, !res) db q.final in
  { result; iterations; rows_fed }
