(* The traced run's decompositions of the production entry points into the
   public layer calls they make, each call bracketed by {!Probe}.

   [execute_plan] is [Api.execute_prepared] / [Fetch_plan.execute]:
   Translate.execute_def, then apply_take, then finalize_plan.
   [fetch_text] is [Api.fetch_string] with the result and plan caches off:
   Xnf_parser.parse_query, View_registry.compose, Translate.compile_def,
   then the same three calls. [sql] is [Db.query]: Sql_parser.parse_select,
   Db.bind_select, Db.run_qgm. *)

open Relational
open Xnf

let a_parse = Probe.acc "xnf_parser.parse"
let a_compose = Probe.acc "view_registry.compose"
let a_compile = Probe.acc "translate.compile"
let a_execute = Probe.acc "translate.execute"
let a_root_only = Probe.acc "translate.root_only"
let a_take = Probe.acc "translate.take"
let a_finalize = Probe.acc "translate.finalize"
let a_adjacency = Probe.acc "cache.adjacency_build"
let a_children = Probe.acc "cache.children"
let a_open_ind = Probe.acc "cursor.open_independent"
let a_open_dep = Probe.acc "cursor.open_dependent"
let a_next = Probe.acc "cursor.next"
let a_decode = Probe.acc "dict.decode"
let a_sql_parse = Probe.acc "sql_parser.parse"
let a_bind = Probe.acc "db.bind"
let a_run = Probe.acc "db.run"

let st = Translate.stats

(* the per-fetch deltas of the public Translate.stats counters. They are
   taken around the whole fetch: the edge-strategy counters
   (indexed_probes among them) move when a plan is compiled, not when it
   is executed, so they read 0 per fetch on the prepared workloads *)
let counting f =
  let r0 = st.fixpoint_rounds and q0 = st.queries_issued and t0 = st.tuples_probed
  and i0 = st.indexed_probes and b0 = st.hash_builds and u0 = st.hash_build_reuses
  and h0 = st.hash_probes and s0 = st.strategy_switches in
  let c = f () in
  let d name v0 v1 = Probe.add_count name (float_of_int (v1 - v0)) in
  d "translate.rounds" r0 st.fixpoint_rounds;
  d "translate.queries" q0 st.queries_issued;
  d "translate.tuples_probed" t0 st.tuples_probed;
  d "translate.indexed_probes" i0 st.indexed_probes;
  d "translate.hash_builds" b0 st.hash_builds;
  d "translate.hash_build_reuses" u0 st.hash_build_reuses;
  d "translate.hash_probes" h0 st.hash_probes;
  d "translate.strategy_switches" s0 st.strategy_switches;
  c

let finish db cp take c =
  let c = Probe.time a_take (fun () -> Translate.apply_take c take) in
  Probe.time a_finalize (fun () -> Translate.finalize_plan db cp c)

(** [execute_plan db plan params] is the traced [Fetch_plan.execute]. *)
let execute_plan db plan params =
  counting @@ fun () ->
  let cp = Fetch_plan.compiled plan in
  let c =
    Probe.time a_execute (fun () ->
        Translate.execute_def ~params db cp (Fetch_plan.path_restrs plan))
  in
  finish db cp (Fetch_plan.take plan) c

(** [fetch_text api text] is the traced [Api.fetch_string]. *)
let fetch_text api text =
  counting @@ fun () ->
  let db = Api.db api in
  let q = Probe.time a_parse (fun () -> Xnf_parser.parse_query text) in
  let def, restrs, take =
    Probe.time a_compose (fun () -> View_registry.compose (Api.registry api) q)
  in
  let cp = Probe.time a_compile (fun () -> Translate.compile_def ~take db def) in
  finish db cp take (Probe.time a_execute (fun () -> Translate.execute_def db cp restrs))

(** [prepare_probe api text] times the parse, compose and compile that
    PREPARE performs for [text] (the prepared workloads pay them once, at
    set-up). *)
let prepare_probe api text =
  let q = Probe.time a_parse (fun () -> Xnf_parser.parse_query text) in
  let def, _, take =
    Probe.time a_compose (fun () -> View_registry.compose (Api.registry api) q)
  in
  ignore (Probe.time a_compile (fun () -> Translate.compile_def ~take (Api.db api) def))

(** [root_only db plan params] times Translate.execute_def of a plan whose
    CO holds only the workload's root node. *)
let root_only db plan params =
  ignore
    (Probe.time a_root_only (fun () ->
         Translate.execute_def ~params db (Fetch_plan.compiled plan) (Fetch_plan.path_restrs plan)))

(** [sql db text] is the traced [Db.query]. *)
let sql db text =
  let q = Probe.time a_sql_parse (fun () -> Sql_parser.parse_select text) in
  let qgm = Probe.time a_bind (fun () -> Db.bind_select db q) in
  Probe.time a_run (fun () -> List.of_seq (Db.run_qgm db qgm))

(** [adjacency cache] makes the first [Cache.children] call on every edge
    (which builds its adjacency) and a second one on the same parent (the
    steady-state cost of one call). *)
let adjacency cache =
  List.iter
    (fun (_, ei) ->
      (* position 0 is live: nothing has been deleted from a fresh CO *)
      if Vec.length ei.Cache.ei_parent_node.Cache.ni_tuples > 0 then begin
        let pos = 0 in
        ignore (Probe.time a_adjacency (fun () -> Cache.children cache ei pos));
        ignore (Probe.time a_children (fun () -> Cache.children cache ei pos))
      end)
    cache.Cache.c_edges

(* hot cursor calls: clock-only brackets, so that the bracket costs as
   little as possible next to a sub-microsecond call. A clock read costs
   about 45 ns on the reference host, a cursor step about 500 ns, so the
   steps of a walk are timed one in four (drawn pseudo-randomly) and each
   timed step stands for four in the layer sum. Cursor.reset is not
   bracketed: it does O(1) work, less than one bracket costs. *)

let next c =
  let t0 = Probe.now_ns () in
  let r = Cursor.next c in
  Probe.record a_next ~ns:(Probe.now_ns () - t0) ~words:0.;
  r

(* a walk step followed by the decode of the tuple it lands on; a timed
   step shares the clock read between the two brackets *)
let next_row c =
  if not (Probe.sampled ()) then
    match Cursor.next c with Some t -> Some (Cache.row t) | None -> None
  else begin
    let weight = Probe.sample_weight in
    let t0 = Probe.now_ns () in
    match Cursor.next c with
    | None ->
      Probe.record ~weight a_next ~ns:(Probe.now_ns () - t0) ~words:0.;
      None
    | Some t ->
      let t1 = Probe.now_ns () in
      Probe.record ~weight a_next ~ns:(t1 - t0) ~words:0.;
      let r = Cache.row t in
      Probe.record ~weight a_decode ~ns:(Probe.now_ns () - t1) ~words:0.;
      Some r
  end

let row t =
  let t0 = Probe.now_ns () in
  let r = Cache.row t in
  Probe.record a_decode ~ns:(Probe.now_ns () - t0) ~words:0.;
  r

let open_independent cache node =
  Probe.time a_open_ind (fun () -> Cursor.open_independent cache node)

let open_dependent parent edge =
  Probe.time a_open_dep (fun () -> Cursor.open_dependent ~parent (Cursor.via edge))

(** The per-layer metrics every workload reports from these
    accumulators. Layers a workload does not call read 0. *)
let metrics () =
  let open Common in
  [ m "xnf_parser.parse_us" (Probe.mean_us "xnf_parser.parse") "us";
    m "view_registry.compose_us" (Probe.mean_us "view_registry.compose") "us";
    m "translate.compile_us" (Probe.mean_us "translate.compile") "us";
    m "translate.execute_ms" (Probe.mean_ms "translate.execute") "ms";
    m "translate.execute_minor_words" (Probe.mean_words "translate.execute") "words";
    m "translate.rounds" (Probe.mean_count "translate.rounds") "count";
    m "translate.queries" (Probe.mean_count "translate.queries") "count";
    m "translate.tuples_probed" (Probe.mean_count "translate.tuples_probed") "count";
    m "translate.indexed_probes" (Probe.mean_count "translate.indexed_probes") "count";
    m "translate.root_only_us" (Probe.mean_us "translate.root_only") "us";
    m "translate.hash_builds" (Probe.mean_count "translate.hash_builds") "count";
    m "translate.hash_build_reuses" (Probe.mean_count "translate.hash_build_reuses") "count";
    m "translate.hash_probes" (Probe.mean_count "translate.hash_probes") "count";
    m "translate.strategy_switches" (Probe.mean_count "translate.strategy_switches") "count";
    m "translate.take_us" (Probe.mean_us "translate.take") "us";
    m "translate.finalize_us" (Probe.mean_us "translate.finalize") "us";
    m "cache.delivered_rows" (Probe.mean_count "cache.delivered_rows") "count";
    m "cache.adjacency_build_us" (Probe.mean_us "cache.adjacency_build") "us";
    m "cache.children_ns" (Probe.mean_ns "cache.children") "ns";
    m "cursor.open_independent_us" (Probe.mean_us "cursor.open_independent") "us";
    m "cursor.open_dependent_us" (Probe.mean_us "cursor.open_dependent") "us";
    m "cursor.next_ns" (Probe.mean_ns "cursor.next") "ns";
    m "dict.decode_ns" (Probe.mean_ns "dict.decode") "ns";
    m "udi.update_us" (Probe.mean_us "udi.update") "us";
    m "udi.connect_us" (Probe.mean_us "udi.connect") "us";
    m "udi.disconnect_us" (Probe.mean_us "udi.disconnect") "us";
    m "udi.insert_us" (Probe.mean_us "udi.insert") "us";
    m "udi.save_ms" (Probe.mean_ms "udi.save") "ms";
    m "udi.hire_save_us" (Probe.mean_us "udi.hire_save") "us";
    m "udi.base_writes" (Probe.mean_count "udi.base_writes") "count";
    m "wal.appends" (Probe.mean_count "wal.appends") "count";
    m "sql_parser.parse_us" (Probe.mean_us "sql_parser.parse") "us";
    m "db.bind_us" (Probe.mean_us "db.bind") "us";
    m "db.run_us" (Probe.mean_us "db.run") "us";
    m "dict.size" (float_of_int (Dict.size ())) "count" ]

(** [delivered c] counts the tuples plus connections of a delivered CO. *)
let delivered c = Cache.total_tuples c + Cache.total_conns c

(** [figures cfg ~fetch ~ops ~op_s ~traced_ops ~major0] are a run's
    end-to-end metrics — from its [ops] untraced operations, which took
    [op_s] seconds of timed work, and their [fetch] latencies — and, in a
    traced run, its per-layer metrics. *)
let figures (cfg : Common.config) ~fetch ~ops ~op_s ~traced_ops ~major0 =
  let open Common in
  let e2e =
    [ m "ops_per_s" (float_of_int ops /. op_s) "ops/s";
      m "fetch_p50_ms" (median fetch.xs) "ms";
      m "fetch_p90_ms" (percentile fetch.xs 0.90) "ms";
      m "heap_peak_mb" (heap_peak_mb ()) "MB" ]
  in
  let layer =
    if cfg.trace then
      metrics () @ trace_metrics ~untraced_ops:ops ~untraced_s:op_s ~traced_ops ~major0
    else []
  in
  (e2e, layer)
