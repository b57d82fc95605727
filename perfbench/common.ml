(* Shared pieces of the benchmark: run configuration, the checks' failure
   exception, sample statistics and the result record every workload
   returns. *)

type plant = Drop_tuple | Skip_model

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** reduced sizes, for the self-test *)
  plant : plant option;  (** a defect planted to prove the checks fail *)
}

(** Raised by a correctness check; the run stops and reports
    [correct = false]. *)
exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(** [prepared api name] is the plan PREPARE stored under [name]. *)
let prepared api name =
  match List.assoc_opt name (Xnf.Api.prepared_plans api) with
  | Some p -> p
  | None -> fail "prepared plan %s is missing" name

(** [drop_one cache node] is the planted defect that drops one delivered
    tuple before the check. *)
let drop_one cache node =
  match Xnf.Cache.live_tuples (Xnf.Cache.node cache node) with
  | t :: _ -> t.Xnf.Cache.t_live <- false
  | [] -> ()

let now_s () = float_of_int (Probe.now_ns ()) /. 1e9

(** [percentile xs q] interpolates the [q]-quantile (0..1) of the samples;
    [xs] need not be sorted. 0 for no samples. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    let f = r -. float_of_int i in
    if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i)
  end

let median xs = percentile xs 0.5

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** the untraced figures *)
  layer : metric list;  (** the traced figures ([trace] runs only) *)
  report : string list;  (** human-readable lines printed before the result *)
}

(** Samples of one timed quantity, in milliseconds. *)
type samples = { mutable xs : float list; mutable n : int }

let samples () = { xs = []; n = 0 }

let add s v =
  s.xs <- v :: s.xs;
  s.n <- s.n + 1

(** [timed s f] runs [f ()], adds its wall time in ms to [s] and returns
    its result with the elapsed seconds. *)
let timed s f =
  let t0 = Probe.now_ns () in
  let r = f () in
  let dt = Probe.now_ns () - t0 in
  add s (float_of_int dt /. 1e6);
  (r, float_of_int dt /. 1e9)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(** [tail_line name s] renders the median and the highest of p90/p99 that
    leaves at least ten samples beyond it. *)
let tail_line name s =
  let p50 = median s.xs in
  if s.n >= 1000 then
    Printf.sprintf "%s: p50 %.4f ms, p99 %.4f ms (n=%d)" name p50 (percentile s.xs 0.99) s.n
  else if s.n >= 100 then
    Printf.sprintf "%s: p50 %.4f ms, p90 %.4f ms (n=%d)" name p50 (percentile s.xs 0.90) s.n
  else Printf.sprintf "%s: p50 %.4f ms (n=%d)" name p50 s.n

(** [loop cfg round] runs [round i ~traced] for rounds [i = 0, 1, ...]
    until [cfg.seconds] of wall time have passed. A traced run alternates
    untraced and traced rounds, so that both see the same heap and the
    same data. *)
let loop cfg round =
  let t_end = now_s () +. cfg.seconds in
  let i = ref 0 in
  while now_s () < t_end do
    round !i ~traced:(cfg.trace && !i mod 2 = 1);
    incr i
  done

(** [trace_metrics ~untraced_ops ~untraced_s ~traced_ops ~major0] are the
    traced run's whole-operation figures: minor words per traced
    operation, major collections over the run, the tracing overhead
    (traced against untraced time per operation) and the share of the
    traced operation time that the bracketed layer calls account for. *)
let trace_metrics ~untraced_ops ~untraced_s ~traced_ops ~major0 =
  let traced_s = float_of_int !Probe.op_ns /. 1e9 in
  let per n s = if n > 0 then s /. float_of_int n else 0. in
  let overhead =
    let u = per untraced_ops untraced_s in
    if u > 0. then ((per traced_ops traced_s /. u) -. 1.) *. 100. else 0.
  in
  let layer_sum =
    if !Probe.op_ns > 0 then float_of_int !Probe.op_layer_ns /. float_of_int !Probe.op_ns *. 100.
    else 0.
  in
  [ m "gc.minor_words_per_op" (per traced_ops !Probe.op_words) "words";
    m "gc.major_collections" (float_of_int ((Gc.quick_stat ()).Gc.major_collections - major0))
      "count";
    m "trace.overhead_pct" overhead "%";
    m "trace.layer_sum_pct" layer_sum "%" ]

(** The layer-sum self-check: the bracketed layer calls must add up to
    within 10% of the traced operation time. *)
let check_layer_sum () =
  if !Probe.op_ns > 0 then begin
    let share = float_of_int !Probe.op_layer_ns /. float_of_int !Probe.op_ns in
    if share < 0.9 || share > 1.1 then
      fail "layer-sum self-check: the timed layer calls cover %.1f%% of the traced operation time"
        (share *. 100.)
  end
