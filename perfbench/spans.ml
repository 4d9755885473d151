(* In-memory span recorder for the traced replay.

   A span is one call into a layer: its name, start and end (seconds,
   [Unix.gettimeofday]), the span open around it when it started
   ([parent], -1 at top level) and the request it belongs to. Spans are
   appended to a growable array while the replay runs and written out
   once at the end, so recording costs two clock reads and one store. *)

type span = {
  id : int;
  name : string;
  rid : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;  (** ids of the spans currently open *)
  mutable rid : int;
}

let dummy = { id = -1; name = ""; rid = -1; parent = -1; t0 = 0.; t1 = 0. }

let create () = { spans = Array.make 4096 dummy; n = 0; stack = []; rid = -1 }

let set_request t rid = t.rid <- rid

let open_span t name =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s =
    { id = t.n; name; rid = t.rid; parent; t0 = Unix.gettimeofday ();
      t1 = nan }
  in
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.stack <- s.id :: t.stack;
  s

let close_span t s =
  s.t1 <- Unix.gettimeofday ();
  match t.stack with
  | top :: rest when top = s.id -> t.stack <- rest
  | _ -> invalid_arg ("Spans.close_span: not the innermost span: " ^ s.name)

let with_span t name f =
  let s = open_span t name in
  match f () with
  | v ->
    close_span t s;
    v
  | exception e ->
    close_span t s;
    raise e

let iter t f =
  for i = 0 to t.n - 1 do
    f t.spans.(i)
  done

let duration s = s.t1 -. s.t0

(* Self time per span name, in seconds: a span's duration minus the
   durations of its direct children (children never outlive their
   parent, so they cover disjoint parts of its interval). *)
let self_times t =
  let child = Array.make t.n 0.0 in
  iter t (fun s -> if s.parent >= 0 then
             child.(s.parent) <- child.(s.parent) +. duration s);
  let tbl = Hashtbl.create 32 in
  iter t (fun s ->
      let sum = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (sum +. duration s -. child.(s.id)));
  tbl

(* One JSON object per line, times in microseconds from the first
   span's start. *)
let write t path =
  let base = if t.n > 0 then t.spans.(0).t0 else 0.0 in
  let oc = open_out path in
  iter t (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.name s.rid s.parent
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6));
  close_out oc
