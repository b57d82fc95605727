(* Per-layer accumulators for the traced run.

   The traced run calls each layer's public functions itself and brackets
   every call with a monotonic clock and [Gc.minor_words]. One accumulator
   per layer function collects the number of calls, the nanoseconds spent
   inside them and the minor words they allocated. [op] brackets a whole
   traced operation, so that the sum of the layer calls made inside it can
   be compared with the operation's own time (the layer-sum self-check).

   The untraced run never enters this module on its timed path. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type acc = { mutable calls : int; mutable ns : int; mutable words : float }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { calls = 0; ns = 0; words = 0. } in
    Hashtbl.replace table name a;
    a

(* nanoseconds spent in bracketed layer calls since the current [op]
   started; [in_op] keeps calls made outside an operation (set-up, the
   root-only and SQL point-select probes) out of the layer sum *)
let layer_ns = ref 0
let in_op = ref false

(* [weight] > 1 marks a sampled call that stands for [weight] calls in
   the layer sum; per-call means stay over the calls actually timed *)
let record ?(weight = 1) a ~ns ~words =
  a.calls <- a.calls + 1;
  a.ns <- a.ns + ns;
  a.words <- a.words +. words;
  if !in_op then layer_ns := !layer_ns + (ns * weight)

(* a pseudo-random one-in-[sample_weight] draw (a 32-bit LCG), so that the
   sample does not alias with the regular call patterns of a cursor walk *)
let sample_weight = 4
let lcg = ref 12345

let sampled () =
  lcg := ((!lcg * 1103515245) + 12345) land 0x7fffffff;
  (!lcg lsr 16) land (sample_weight - 1) = 0

(** [time a f] runs [f ()] bracketed into accumulator [a], also when it
    raises. *)
let time a f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let stop () = record a ~ns:(now_ns () - t0) ~words:(Gc.minor_words () -. w0) in
  match f () with
  | r ->
    stop ();
    r
  | exception e ->
    stop ();
    raise e

(* totals over the traced sections *)
let op_ns = ref 0
let op_layer_ns = ref 0
let op_words = ref 0.

(** [op f] runs one timed section of a traced operation, adding its wall
    time, its minor words and the time of the layer calls made inside it
    to the totals. *)
let op f =
  layer_ns := 0;
  in_op := true;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = Fun.protect ~finally:(fun () -> in_op := false) f in
  let t1 = now_ns () in
  op_words := !op_words +. (Gc.minor_words () -. w0);
  op_ns := !op_ns + (t1 - t0);
  op_layer_ns := !op_layer_ns + !layer_ns;
  r

(** [mean_us name] / [mean_ns name] / [mean_ms name] are the mean time per
    call of one accumulator; 0 when it was never called. *)
let mean name scale =
  match Hashtbl.find_opt table name with
  | Some a when a.calls > 0 -> float_of_int a.ns /. float_of_int a.calls /. scale
  | _ -> 0.

let mean_ns name = mean name 1.
let mean_us name = mean name 1e3
let mean_ms name = mean name 1e6

let mean_words name =
  match Hashtbl.find_opt table name with
  | Some a when a.calls > 0 -> a.words /. float_of_int a.calls
  | _ -> 0.

(* named per-call counts (translate counters, rows delivered, base
   writes): summed, then divided by the number of samples *)
let counts : (string, float * int) Hashtbl.t = Hashtbl.create 16

let add_count name v =
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt counts name) in
  Hashtbl.replace counts name (s +. v, n + 1)

let mean_count name =
  match Hashtbl.find_opt counts name with
  | Some (s, n) when n > 0 -> s /. float_of_int n
  | _ -> 0.
