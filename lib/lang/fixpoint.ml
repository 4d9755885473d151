module Item = Fixq_xdm.Item
module Accumulator = Fixq_xdm.Accumulator

exception Diverged of int

type 'i start = Apply of 'i * int | Resume of 'i * int

(* Figure 3 as one loop. Each round feeds [body] either the whole
   accumulated result (Naïve, when [whole] is given) or the previous
   round's fresh output (Delta), lets the instance's [absorb] fold the
   output into its own structure, and records the round. The loop ends
   on the first round that absorbs nothing new — for node sets that is
   Definition 2.1's set-equality test; for semiring accumulators, "no
   annotation strictly improved". *)
let run ?(max_iterations = 1_000_000) ?whole ~stats ~body ~absorb ~size start
    =
  Stats.start_run stats;
  let round ~fed input =
    let (fresh, fresh_n, out_n) = absorb (body input) in
    Stats.record_iteration stats ~fed ~produced:out_n ~result_size:(size ());
    (fresh, fresh_n)
  in
  let rec loop (delta, delta_n) i =
    if i > max_iterations then raise (Diverged i);
    let (fresh, fresh_n) =
      match whole with
      | Some whole -> round ~fed:(size ()) (whole ())
      | None -> round ~fed:delta_n delta
    in
    if fresh_n = 0 then i else loop (fresh, fresh_n) (i + 1)
  in
  match start with
  | Apply (seed, seed_n) -> loop (round ~fed:seed_n seed) 1
  | Resume (frontier, frontier_n) -> loop (frontier, frontier_n) 1

(* The node-set instance: an {!Fixq_xdm.Accumulator} filters each
   round's output against a bitmap and appends the fresh nodes as a
   sorted run, so a round costs O(|out| + |Δ|) whatever |res| is. *)
let on_nodes ?max_iterations ~use_delta ~stats ~body acc start =
  let whole () = Accumulator.to_seq acc in
  run ?max_iterations ?whole:(if use_delta then None else Some whole) ~stats
    ~body ~absorb:(Accumulator.absorb acc ~who:"fs:ddo")
    ~size:(fun () -> Accumulator.size acc)
    start

let nodes ?max_iterations ?(include_seed = false) ~use_delta ~stats ~body
    ~seed () =
  let acc = Accumulator.create () in
  let start =
    if include_seed then
      let (fresh, fresh_n, _) = Accumulator.absorb acc ~who:"fs:ddo" seed in
      Resume (fresh, fresh_n)
    else Apply (seed, List.length seed)
  in
  ignore (on_nodes ?max_iterations ~use_delta ~stats ~body acc start);
  Accumulator.to_seq acc

let naive = nodes ~use_delta:false
let delta = nodes ~use_delta:true
