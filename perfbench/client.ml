(* The served side: spawning [fixq serve --socket], one client
   connection, response checks, the [stats] op and clean teardown. *)

module Json = Fixq_service.Json

type server = {
  pid : int;
  sock : string;  (** relative to the working directory: no path limit *)
  state_dir : string option;
}

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let live : server list ref = ref []

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Spawn a server and wait until it accepts. Its output goes to a log
   file beside the socket, shown if the server fails to come up. *)
let spawn ~fixq ~tmp ~durable ~index =
  let sock = Filename.concat tmp (Printf.sprintf "s%d.sock" index) in
  let state_dir =
    if durable then Some (Filename.concat tmp (Printf.sprintf "state%d" index))
    else None
  in
  let log = Filename.concat tmp (Printf.sprintf "server%d.log" index) in
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [ fixq; "serve"; "--socket"; sock ]
    @ match state_dir with Some d -> [ "--state-dir"; d ] | None -> []
  in
  let pid =
    Unix.create_process fixq (Array.of_list args) Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  let s = { pid; sock; state_dir } in
  live := s :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match connect sock with
    | c -> c
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("fixq serve exited during start-up; see " ^ log));
      Unix.sleepf 0.002;
      wait ()
  in
  (s, wait ())

let forget s = live := List.filter (fun x -> x.pid <> s.pid) !live

(* Peak resident set of the server process, in MB. *)
let vm_hwm_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

(* Stop a server whose client connections are all closed: shutdown on
   a fresh connection (an open idle connection would keep the server's
   only worker thread, and so the shutdown, waiting), then reap it and
   remove its state directory. *)
let shutdown s =
  (match connect s.sock with
  | c ->
    (try ignore (request c {|{"op":"shutdown"}|}) with _ -> ());
    close c
  | exception Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap ();
  forget s;
  Option.iter rm_rf s.state_dir

(* Last resort (error exit, watchdog): kill and reap every server. *)
let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
      Option.iter (fun d -> try rm_rf d with _ -> ()) s.state_dir)
    !live;
  live := []

(* ------------------------------------------------------------------ *)
(* Response checks                                                     *)
(* ------------------------------------------------------------------ *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Does [s] hold [frag] at or after the first occurrence of [key]? The
   key is short and unique in a response ("result" or "inserted"), so
   this finds the field without parsing a response that can be hundreds
   of KB. *)
let field_is s ~key ~frag =
  let n = String.length s and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.sub s i k = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
    let m = String.length frag in
    i + m <= n && String.sub s i m = frag

let check (r : Workload.req) response =
  starts_with ~prefix:{|{"ok":true|} response
  && field_is response
       ~key:(if r.Workload.write then "\"inserted\":" else "\"result\":")
       ~frag:r.Workload.frag

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

type counts = {
  prepared_hits : int;
  prepared_misses : int;
  result_hits : int;
  result_misses : int;
  ivm_maintained : int;
  ivm_fallback : int;
  ivm_delta_nodes : int;
  wal_appends : int;
  snapshots : int;
}

let stats c =
  let j = Json.member "stats" (Json.parse (request c {|{"op":"stats"}|})) in
  let int path =
    let v = List.fold_left (fun j k -> Json.member k j) j path in
    Option.value ~default:0 (Json.int_opt v)
  in
  { prepared_hits = int [ "prepared"; "hits" ];
    prepared_misses = int [ "prepared"; "misses" ];
    result_hits = int [ "results"; "hits" ];
    result_misses = int [ "results"; "misses" ];
    ivm_maintained = int [ "ivm"; "maintained_total" ];
    ivm_fallback = int [ "ivm"; "fallback_recompute_total" ];
    ivm_delta_nodes = int [ "ivm"; "delta_nodes_total" ];
    wal_appends = int [ "durability"; "wal_appends" ];
    snapshots = int [ "durability"; "snapshots" ] }

let diff a b =
  { prepared_hits = a.prepared_hits - b.prepared_hits;
    prepared_misses = a.prepared_misses - b.prepared_misses;
    result_hits = a.result_hits - b.result_hits;
    result_misses = a.result_misses - b.result_misses;
    ivm_maintained = a.ivm_maintained - b.ivm_maintained;
    ivm_fallback = a.ivm_fallback - b.ivm_fallback;
    ivm_delta_nodes = a.ivm_delta_nodes - b.ivm_delta_nodes;
    wal_appends = a.wal_appends - b.wal_appends;
    snapshots = a.snapshots - b.snapshots }
