(* Host-side measurement: wall clock, the benchmark's own span recorder and
   process statistics. Everything here is about the simulator's host cost,
   never about simulated cycles. *)

let now = Unix.gettimeofday

(* A host span: one call into a layer, timed from the benchmark's own code.
   [parent] is the [id] of the enclosing span, -1 at top level. *)
type span = {
  id : int;
  name : string;
  start_s : float;
  stop_s : float;
  parent : int;
  args : (string * float) list;
}

type spans = {
  mutable rows : span list;  (* in completion order, newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (* ids of the spans being timed, innermost first *)
}

let spans () = { rows = []; next_id = 0; open_ = [] }

(* Time [f] as a child of the innermost open span; [args] turns the result
   into counters stored on the span. Returns the result and the duration. *)
let span ?(args = fun _ -> []) t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_s = now () in
  let close a =
    let stop_s = now () in
    t.open_ <- List.tl t.open_;
    t.rows <- { id; name; start_s; stop_s; parent; args = a } :: t.rows;
    stop_s -. start_s
  in
  match f () with
  | v ->
      let dur = close (args v) in
      (v, dur)
  | exception e ->
      ignore (close []);
      raise e

let ordered t = List.sort (fun a b -> compare a.id b.id) t.rows

(* Process statistics. [peak_rss_mb] is the kernel's high-water mark of the
   resident set (VmHWM); where /proc is missing it falls back to the
   OCaml heap's top size, which undercounts. *)
let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                  (fun kb -> Some (float_of_int kb /. 1024.0))
              else scan ()
        in
        let v = scan () in
        close_in ic;
        v
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. (1024.0 *. 1024.0)

(* User plus system CPU seconds of this process. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

(* Machine-speed reference. On a shared host the same code runs up to 1.6x
   slower for seconds at a time as neighbouring tenants come and go
   (measured on a 2-vCPU 2.1 GHz Xeon VM), which swamps any host-time
   comparison between two runs. A fixed stdlib-only kernel (hash-table
   probes, random reads over 8 MiB, short-lived allocation), timed between
   rounds, measures that drift; host-time figures are divided by
   [kernel time / kernel_ref_s] so that they read as if every round had run
   at the reference speed. The kernel uses no repository code, so a change
   to the simulator cannot move it. *)
let kernel_ref_s = 0.010

let kernel_data = lazy (Array.init (1 lsl 20) (fun i -> (i * 2654435761) land ((1 lsl 20) - 1)))

let kernel () =
  let data = Lazy.force kernel_data in
  let mask = Array.length data - 1 in
  let t0 = now () in
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0 and j = ref 1 and keep = ref [] in
  for k = 1 to 60_000 do
    let key = (k * 7919) land 16383 in
    (match Hashtbl.find_opt tbl key with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace tbl key k);
    j := ((!j * 1103515245) + 12345) land mask;
    acc := !acc + data.(!j);
    keep := (k, !acc) :: (if k land 255 = 0 then [] else !keep)
  done;
  ignore (Sys.opaque_identity (!acc, !keep));
  now () -. t0
