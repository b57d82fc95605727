(* The benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--small] [--plant drop-tuple|skip-model]

   Sets the workload up five times (the median is [setup_s]), runs it for
   S seconds, checks every delivered result against a model computed apart
   from the engine, and prints a human-readable report followed, as the
   last line of standard output, by one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones. *)

open Common

type workload = W : (config -> 'e) * (config -> 'e -> result) -> workload

let workloads =
  [ ("oo1-traverse", W (Oo1_bench.traverse_setup, Oo1_bench.traverse_run));
    ("oo1-closure", W (Oo1_bench.closure_setup, Oo1_bench.closure_run));
    ("company-rw", W (Company_bench.setup, Company_bench.run)) ]

let setups = 5

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " ms)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--small] [--plant \
     drop-tuple|skip-model]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1)
  and small = ref false and plant = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--small" :: rest -> small := true; parse rest
    | "--plant" :: "drop-tuple" :: rest -> plant := Some Drop_tuple; parse rest
    | "--plant" :: "skip-model" :: rest -> plant := Some Skip_model; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let (W (setup, run)) =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  let cfg = { seed = !seed; seconds = !seconds; trace = !trace = 1; small = !small; plant = !plant } in
  match
    let times = ref [] and env = ref None in
    for _ = 1 to setups do
      (* drop the previous set-up first, so that its heap is reclaimed
         before the next one is timed *)
      env := None;
      Gc.full_major ();
      let t0 = now_s () in
      let e = setup cfg in
      times := (now_s () -. t0) :: !times;
      env := Some e
    done;
    let setup_s = median !times in
    let r = run cfg (Option.get !env) in
    if cfg.trace then check_layer_sum ();
    (setup_s, r)
  with
  | setup_s, r ->
    List.iter print_endline r.report;
    Printf.printf "setup: %s s (median of %d)\n" (json_number setup_s) setups;
    let metrics = if cfg.trace then r.layer else m "setup_s" setup_s "s" :: r.e2e in
    List.iter (fun x -> Printf.printf "  %-32s %14.6g %s\n" x.name x.value x.unit_) metrics;
    print_result ~correct:true ~attempted:r.attempted ~failed:r.failed metrics
  | exception Check_failed msg ->
    Printf.printf "CHECK FAILED: %s\n" msg;
    print_result ~correct:false ~attempted:1 ~failed:0 []
  | exception e ->
    Printf.printf "CHECK FAILED: unexpected exception %s\n" (Printexc.to_string e);
    print_result ~correct:false ~attempted:1 ~failed:0 []
