module Counters = Fixq_xdm.Counters

type iteration = {
  fed : int;
  produced : int;
  result_size : int;
  round_ms : float;
  kernel : Counters.snapshot;
}

type snapshot = { snap_fed : int; snap_calls : int; snap_depth : int }

type t = {
  mutable total_fed : int;
  mutable total_calls : int;
  mutable max_depth : int;
  mutable current_run : iteration list;  (** newest first *)
  mutable run_len : int;  (** [List.length current_run], kept O(1) *)
  mutable iteration_hook : (unit -> unit) option;
  mutable round_started : float;
  mutable round_counters : Counters.snapshot;
  mutable total_ms : float;
}

let now () = Unix.gettimeofday ()

let create () =
  { total_fed = 0; total_calls = 0; max_depth = 0; current_run = [];
    run_len = 0; iteration_hook = None; round_started = now ();
    round_counters = Counters.snapshot (); total_ms = 0.0 }

let reset t =
  t.total_fed <- 0;
  t.total_calls <- 0;
  t.max_depth <- 0;
  t.current_run <- [];
  t.run_len <- 0;
  t.total_ms <- 0.0;
  t.round_started <- now ();
  t.round_counters <- Counters.snapshot ()

let start_run t =
  t.current_run <- [];
  t.run_len <- 0;
  t.round_started <- now ();
  t.round_counters <- Counters.snapshot ()

let set_iteration_hook t hook = t.iteration_hook <- hook

(* The fixpoint kernel reports every round of every engine here (the
   µ/µ∆ and SQL evaluators share the interpreter's Stats.t), so this is
   the single place where
   a chaos schedule can fault "mid-round" deterministically: a
   simulated allocation failure, a stall, or a worker crash between
   rounds N and N+1. *)
let chaos_round_point () =
  match Fixq_chaos.check "fixpoint.round" with
  | None | Some (Fixq_chaos.Drop | Fixq_chaos.Truncate) -> ()
  | Some (Fixq_chaos.Delay s) -> Fixq_chaos.sleep s
  | Some Fixq_chaos.Oom -> raise Out_of_memory
  | Some Fixq_chaos.Kill -> Fixq_chaos.kill_self ()

let record_iteration t ~fed ~produced ~result_size =
  chaos_round_point ();
  let stamp = now () in
  let counters = Counters.snapshot () in
  let round_ms = (stamp -. t.round_started) *. 1000.0 in
  let kernel = Counters.diff counters t.round_counters in
  t.round_started <- stamp;
  t.round_counters <- counters;
  t.total_ms <- t.total_ms +. round_ms;
  t.total_fed <- t.total_fed + fed;
  t.total_calls <- t.total_calls + 1;
  t.current_run <- { fed; produced; result_size; round_ms; kernel }
    :: t.current_run;
  t.run_len <- t.run_len + 1;
  if t.run_len > t.max_depth then t.max_depth <- t.run_len;
  match t.iteration_hook with None -> () | Some hook -> hook ()

let snapshot t =
  { snap_fed = t.total_fed; snap_calls = t.total_calls;
    snap_depth = t.max_depth }

let nodes_fed t = t.total_fed
let depth t = t.max_depth
let payload_calls t = t.total_calls
let last_run t = List.rev t.current_run
let total_ms t = t.total_ms

let run_kernel_totals t =
  List.fold_left
    (fun acc it -> Counters.add acc it.kernel)
    Counters.zero t.current_run

let pp ppf t =
  Format.fprintf ppf "fed=%d calls=%d depth=%d" t.total_fed t.total_calls
    t.max_depth
