(* perfbench: run one workload, check its outputs, print its metrics.

   [--trace 0] measures the end-to-end metrics through the library's
   own entry points ([Traffic.simulate], [Trial.build], [Query.run],
   [Update.local_change]).  [--trace 1] drives the same workload through
   the benchmark's own loops over the per-message calls, with a span
   around each, and prints the per-layer ledger.  The last line of
   stdout is the JSON result; everything before it is for people. *)

open Ri_util
open Ri_content
open Ri_p2p
open Ri_sim
module T = Ri_experiments.Traffic

(* ---- small statistics ---------------------------------------------- *)

let median_f a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between order statistics. *)
let percentile a p =
  let a = Array.map float_of_int a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let fdiv a b = float_of_int a /. float_of_int (max 1 b)
let seconds_of_ns ns = float_of_int ns /. 1e9

(* ---- correctness checks -------------------------------------------- *)

(* Every failed check marks the operations it covers as failed;
   [failed / attempted] is the run's failed share. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable broken : string list;
}

let checks = { attempted = 0; failed = 0; broken = [] }
let attempt n = checks.attempted <- checks.attempted + n

let check name ok ~ops =
  if not ok then begin
    checks.failed <- checks.failed + max 1 ops;
    checks.broken <- name :: checks.broken;
    Printf.printf "CHECK FAILED: %s\n%!" name
  end

(* ---- the setup ----------------------------------------------------- *)

(* The networks are a fixed data set, built from [Spec.dataset_seed];
   the run's seed draws the traffic over them.  [Traffic.simulate] and
   [Trial.build] derive both the network and the traffic streams from
   one (seed, trial) key, so the data set's overlay and placement are
   entered into the setup cache under the run's key before the first
   build: the build then makes the data set's network, and the run's
   seed still draws every arrival, origin, topic and wave. *)
let dataset (sp : Spec.t) = { sp.Spec.cfg with Config.seed = Spec.dataset_seed }

let build cfg ~trial = Trial.build ~purpose:Trial.For_update cfg ~trial

(* [Trial.build]'s first two phases through the public generator and
   [Placement.distribute], replaying its substream splits, timed. *)
let ingredients (cfg : Config.t) ~trial =
  let master = Prng.create (cfg.Config.seed + (trial * 0x9e3779b)) in
  let topo_rng = Prng.split master in
  let place_rng = Prng.split master in
  let query_rng = Prng.split master in
  let net_rng = Prng.split master in
  let universe = Topic.make cfg.Config.topics in
  let n = cfg.Config.num_nodes in
  let t0 = Ledger.now () in
  let graph =
    match cfg.Config.topology with
    | Config.Tree ->
        Ri_topology.Tree_gen.random_labels topo_rng ~n ~fanout:cfg.Config.fanout
    | Config.Tree_with_cycles { extra_links } ->
        Ri_topology.Cycle_gen.tree_with_cycles topo_rng ~n
          ~fanout:cfg.Config.fanout ~extra_links
    | Config.Power_law_graph ->
        Ri_topology.Power_law.generate topo_rng ~n
          ~exponent:cfg.Config.outdegree_exponent ()
  in
  let t1 = Ledger.now () in
  let query =
    Workload.random_single query_rng universe ~stop:cfg.Config.stop_condition
  in
  let placement =
    Placement.distribute place_rng ~universe ~n
      ~query_topics:query.Workload.topics ~results:cfg.Config.query_results
      ~distribution:cfg.Config.distribution
      ~background_per_node:cfg.Config.background_per_node ()
  in
  let origin = Prng.int query_rng n in
  let t2 = Ledger.now () in
  let content =
    { Setup_cache.query_topics = query.Workload.topics; placement; origin }
  in
  (graph, content, net_rng, seconds_of_ns (t1 - t0), seconds_of_ns (t2 - t1))

let graph_key (cfg : Config.t) ~trial =
  {
    Setup_cache.g_topology = cfg.Config.topology;
    g_num_nodes = cfg.Config.num_nodes;
    g_fanout = cfg.Config.fanout;
    g_exponent = cfg.Config.outdegree_exponent;
    g_seed = cfg.Config.seed;
    g_trial = trial;
  }

let content_key (cfg : Config.t) ~trial =
  {
    Setup_cache.c_num_nodes = cfg.Config.num_nodes;
    c_topics = cfg.Config.topics;
    c_query_results = cfg.Config.query_results;
    c_distribution = cfg.Config.distribution;
    c_background = cfg.Config.background_per_node;
    c_seed = cfg.Config.seed;
    c_trial = trial;
  }

(* Empties the setup cache and enters the data set's trials
   [0, trials) under the run's keys. *)
let pin (sp : Spec.t) ~trials =
  Setup_cache.clear ();
  Gc.compact ();
  for trial = 0 to trials - 1 do
    let graph, content, _, _, _ = ingredients (dataset sp) ~trial in
    ignore (Setup_cache.graph (graph_key sp.Spec.cfg ~trial) (fun () -> graph));
    ignore
      (Setup_cache.content (content_key sp.Spec.cfg ~trial) (fun () -> content))
  done

(* [setup_s]: a cold [Trial.build] of the data set's trial 0 (empty
   setup cache, compacted heap), median of [setup_builds] builds. *)
let setup_seconds (sp : Spec.t) =
  let times =
    Array.init sp.Spec.setup_builds (fun _ ->
        Setup_cache.clear ();
        Gc.compact ();
        let t0 = Ledger.now () in
        ignore (build (dataset sp) ~trial:0);
        seconds_of_ns (Ledger.now () - t0))
  in
  median_f times

(* The data set's trial-0 build phase by phase: the public generator,
   [Placement.distribute], [Network.create].  The medians over
   [setup_builds] builds are the [trial.*] metrics; the network must be
   the one [Trial.build] makes. *)
let trial_layers (sp : Spec.t) =
  let cfg = dataset sp in
  let runs =
    Array.init sp.Spec.setup_builds (fun _ ->
        Gc.compact ();
        let graph, content, net_rng, topo_s, place_s = ingredients cfg ~trial:0 in
        let t0 = Ledger.now () in
        let net =
          Network.create ~graph
            ~content:(Network.content_of_placement content.Setup_cache.placement)
            ?scheme:(Config.scheme_kind cfg) ~compression:(Config.compression cfg)
            ~cycle_policy:cfg.Config.cycle_policy ~min_update:cfg.Config.min_update
            ~update_distance_floor:cfg.Config.update_distance_floor ~rng:net_rng
            ~mode:Network.Converged ?quant:(Config.quant cfg) ()
        in
        let ri_s = seconds_of_ns (Ledger.now () - t0) in
        (Network.converged_iterations net, Network.storage_words net, topo_s, place_s, ri_s))
  in
  Setup_cache.clear ();
  Gc.compact ();
  let reference = (build cfg ~trial:0).Trial.network in
  let iters, words, _, _, _ = runs.(0) in
  check "phased build equals Trial.build"
    (iters = Network.converged_iterations reference
    && words = Network.storage_words reference)
    ~ops:1;
  let med f = median_f (Array.map f runs) in
  [
    ("trial.topology_s", med (fun (_, _, a, _, _) -> a), "s");
    ("trial.placement_s", med (fun (_, _, _, b, _) -> b), "s");
    ("trial.ri_build_s", med (fun (_, _, _, _, c) -> c), "s");
    ("trial.ri_build_iterations", float_of_int iters, "count");
  ]

(* ---- metrics output ------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-36s %18.6f %s\n" name v unit)
    metrics;
  Printf.printf "failed_share %.6f (%d failed of %d attempted)%s\n"
    (fdiv checks.failed checks.attempted)
    checks.failed checks.attempted
    (match checks.broken with
    | [] -> ""
    | l -> "; failed checks: " ^ String.concat ", " (List.rev l));
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (checks.broken = []) checks.attempted checks.failed body

let peak_rss_mb () =
  match Rss.peak_mb () with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6

(* ---- the closed loop ----------------------------------------------- *)

(* The closed loop runs on the trial-0 network; the run's seed draws
   its ops. *)
let closed_loop (sp : Spec.t) cl (setup : Trial.setup) =
  Closed.create sp.Spec.cfg sp.Spec.opts setup cl
    ~rng:(Prng.create ((sp.Spec.cfg.Config.seed * 7919) + 17))

(* The simulated latency of a set of queries: the exact mean, from the
   latency decomposition, and the p99 of the sketch (1% relative error).
   The sketch's median is not used: its bucket rarely moves between
   seeds, so it would read the same on every run. *)
type sim = { mean_ms : float; p99_ms : float }

let sim_of decomp sketch =
  {
    mean_ms =
      fdiv decomp.Ri_obs.Observatory.d_total_ns decomp.Ri_obs.Observatory.d_queries
      /. 1e6;
    p99_ms = Ri_obs.Sketch.quantile sketch 0.99;
  }

type closed_run = {
  acc : Closed.acc;
  block_ns : int array;
  block_msgs : int array;
  det_words_per_msg : float;  (** over the first [det_blocks] *)
  det_sim : sim;
  det_msgs_per_query : float;
}

let closed_ops (cl : Spec.closed_loop) =
  cl.Spec.queries_per_block + cl.Spec.waves_per_block

let messages (a : Closed.acc) = a.Closed.query_messages + a.Closed.update_messages

(* Blocks until [seconds] have passed, never fewer than the
   deterministic ones.  [traced] swaps in the spanned block. *)
let run_closed ?traced (cl : Spec.closed_loop) c ~seconds =
  let a = Closed.acc () in
  let det = cl.Spec.det_blocks in
  let block_ns = Closed.Ints.create () and block_msgs = Closed.Ints.create () in
  let det_figures = ref None in
  let w_start = Ledger.words () in
  let start = Ledger.now () in
  let deadline = int_of_float (seconds *. 1e9) in
  let b = ref 0 in
  while !b < det || Ledger.now () - start < deadline do
    let m0 = messages a in
    let t0 = Ledger.now () in
    (match traced with
    | None -> Closed.block c a
    | Some lay -> Closed.traced_block c a lay);
    Closed.Ints.push block_ns (Ledger.now () - t0);
    Closed.Ints.push block_msgs (messages a - m0);
    attempt (closed_ops cl);
    incr b;
    if !b = det then
      det_figures :=
        Some
          ( fdiv (Ledger.words () - w_start) (messages a),
            sim_of a.Closed.decomp a.Closed.sketch,
            fdiv a.Closed.query_messages a.Closed.queries )
  done;
  check "closed loop: latency decomposition is exact"
    (Ri_obs.Observatory.decomp_exact a.Closed.decomp)
    ~ops:a.Closed.queries;
  let det_words_per_msg, det_sim, det_msgs_per_query = Option.get !det_figures in
  {
    acc = a;
    block_ns = Closed.Ints.to_array block_ns;
    block_msgs = Closed.Ints.to_array block_msgs;
    det_words_per_msg;
    det_sim;
    det_msgs_per_query;
  }

let block_rates r =
  Array.mapi
    (fun i ns -> float_of_int r.block_msgs.(i) /. seconds_of_ns ns)
    r.block_ns

(* The one client's per-op wall latencies, printed for people: on a
   shared host their run-to-run spread exceeds any bound a metric may
   have, so they are not result metrics. *)
let print_op_latencies (a : Closed.acc) =
  let q = Closed.Ints.to_array a.Closed.query_ns in
  let w = Closed.Ints.to_array a.Closed.wave_ns in
  Printf.printf
    "per-op wall latency: query p50 %.1f us, p99 %.1f us (%d samples); wave \
     p50 %.1f us, p99 %.1f us (%d samples)\n"
    (percentile q 0.50 /. 1e3) (percentile q 0.99 /. 1e3) (Array.length q)
    (percentile w 0.50 /. 1e3) (percentile w 0.99 /. 1e3) (Array.length w)

(* ---- the open loops ------------------------------------------------ *)

let check_unit name (o : Openloop.outputs) =
  check
    (name ^ ": every arrival completes")
    (o.Openloop.completed = o.Openloop.arrivals_n)
    ~ops:(o.Openloop.arrivals_n - o.Openloop.completed);
  check
    (name ^ ": latency decomposition is exact")
    (Ri_obs.Observatory.decomp_exact o.Openloop.decomp)
    ~ops:o.Openloop.arrivals_n

type unit_run = { outputs : Openloop.outputs; wall_ns : int; words : int }

let simulate (sp : Spec.t) (ol : Spec.open_loop) ~trial =
  let w0 = Ledger.words () in
  let t0 = Ledger.now () in
  let r = T.simulate sp.Spec.cfg ~opts:sp.Spec.opts ~qps:ol.Spec.qps ~trial in
  let wall_ns = Ledger.now () - t0 in
  let words = Ledger.words () - w0 in
  let outputs = Openloop.of_result r in
  attempt outputs.Openloop.arrivals_n;
  check_unit (Printf.sprintf "trial %d" trial) outputs;
  (r, { outputs; wall_ns; words })

let check_repeat what ~trial (ref_ : Openloop.outputs) (o : Openloop.outputs) =
  check
    (Printf.sprintf "trial %d: %s reproduces the reference outputs" trial what)
    (o = ref_) ~ops:o.Openloop.arrivals_n

(* The arrivals of trial 0, run one at a time through [Query.run] on a
   fresh build of the same network. *)
let synchronous_outcomes (sp : Spec.t) (ol : Spec.open_loop) =
  let setup = build sp.Spec.cfg ~trial:0 in
  let st = Openloop.streams sp.Spec.cfg sp.Spec.opts ~qps:ol.Spec.qps setup in
  Array.map
    (fun (a : Openloop.arrival) ->
      Query.run ~rng:a.Openloop.qrng setup.Trial.network ~origin:a.Openloop.origin
        ~query:a.Openloop.query ~forwarding:Query.Ri_guided)
    st.Openloop.arrivals

let read_only (sp : Spec.t) = sp.Spec.opts.T.o_update_rate = 0.

type open_run = {
  rates : float array;  (** messages per wall-second, one per unit *)
  words_per_msg : float;  (** over the first timed cycle *)
  sim : sim;  (** over the first timed cycle *)
  msgs_per_query : float;
}

let open_end_to_end (sp : Spec.t) (ol : Spec.open_loop) ~seconds =
  (* Network templates into the setup cache first, untimed, then a
     compacted heap. *)
  for trial = 0 to ol.Spec.trials - 1 do
    ignore (build sp.Spec.cfg ~trial)
  done;
  Gc.compact ();
  (* Whole cycles over the trials until [seconds] have passed.  The first
     cycle fixes each trial's outputs, which later cycles must
     reproduce exactly. *)
  let refs = Array.make ol.Spec.trials None in
  let rates = ref [] in
  let cycle_words = ref 0 and cycle_msgs = ref 0 in
  let start = Ledger.now () in
  let deadline = int_of_float (seconds *. 1e9) in
  let cycles = ref 0 in
  while !cycles = 0 || Ledger.now () - start < deadline do
    for trial = 0 to ol.Spec.trials - 1 do
      let r, u = simulate sp ol ~trial in
      let msgs = Openloop.total_messages u.outputs in
      rates := (float_of_int msgs /. seconds_of_ns u.wall_ns) :: !rates;
      match refs.(trial) with
      | None ->
          refs.(trial) <- Some r;
          cycle_words := !cycle_words + u.words;
          cycle_msgs := !cycle_msgs + msgs
      | Some r0 ->
          check_repeat "a repeated simulate" ~trial (Openloop.of_result r0) u.outputs
    done;
    incr cycles
  done;
  let refs = Array.map Option.get refs in
  let outs = Array.map Openloop.of_result refs in
  (* Read-only: the in-flight outcomes of trial 0 must total what the
     synchronous walk finds on the same network. *)
  if read_only sp then begin
    let sync = synchronous_outcomes sp ol in
    let o = outs.(0) in
    let sum f = Array.fold_left (fun acc x -> acc + f x) 0 sync in
    check "in-flight outcomes total Query.run's (found, satisfied, messages)"
      (sum (fun x -> x.Query.found) = o.Openloop.found
      && sum (fun x -> if x.Query.satisfied then 1 else 0) = o.Openloop.satisfied
      && sum Query.messages = o.Openloop.messages)
      ~ops:o.Openloop.arrivals_n
  end;
  let sketch = Ri_obs.Sketch.create () in
  let decomp = Ri_obs.Observatory.decomp_zero () in
  Array.iter
    (fun r ->
      Ri_obs.Sketch.merge_into ~dst:sketch r.T.r_sketch;
      Ri_obs.Observatory.decomp_merge ~into:decomp r.T.r_decomp)
    refs;
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  let rates = Array.of_list (List.rev !rates) in
  Printf.printf
    "open loop: %d cycles of %d trial(s); per cycle %d queries, %d query + %d \
     update messages\nunit rates (msgs/s):%s\n"
    !cycles ol.Spec.trials
    (sum (fun o -> o.Openloop.arrivals_n))
    (sum (fun o -> o.Openloop.messages))
    (sum (fun o -> o.Openloop.update_messages))
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.0f") rates)));
  {
    rates;
    words_per_msg = fdiv !cycle_words !cycle_msgs;
    sim = sim_of decomp sketch;
    msgs_per_query =
      fdiv (sum (fun o -> o.Openloop.messages)) (sum (fun o -> o.Openloop.completed));
  }

(* ---- --trace 0 ----------------------------------------------------- *)

(* The trial-0 network alone on a compacted heap: the closed loop's
   timings then do not depend on what the cache and the earlier phases
   left behind. *)
let fresh_network sp =
  let setup = build sp.Spec.cfg ~trial:0 in
  Setup_cache.clear ();
  Gc.compact ();
  setup

let trials (sp : Spec.t) =
  match sp.Spec.loop with Spec.Open ol -> ol.Spec.trials | Spec.Closed _ -> 1

let end_to_end (sp : Spec.t) ~seconds =
  let setup_s = setup_seconds sp in
  pin sp ~trials:(trials sp);
  let msgs_per_s, words_per_msg, sim, msgs_per_query =
    match sp.Spec.loop with
    | Spec.Open ol ->
        let r = open_end_to_end sp ol ~seconds in
        (median_f r.rates, r.words_per_msg, r.sim, r.msgs_per_query)
    | Spec.Closed cl ->
        let c = closed_loop sp cl (fresh_network sp) in
        let r = run_closed cl c ~seconds in
        Printf.printf "closed loop: %d blocks of %d queries + %d waves\n"
          (Array.length r.block_ns) cl.Spec.queries_per_block cl.Spec.waves_per_block;
        print_op_latencies r.acc;
        (median_f (block_rates r), r.det_words_per_msg, r.det_sim, r.det_msgs_per_query)
  in
  [
    ("setup_s", setup_s, "s");
    ("msgs_per_s", msgs_per_s, "1/s");
    ("alloc_words_per_msg", words_per_msg, "words");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("msgs_per_query", msgs_per_query, "count");
    ("sim_mean_ms", sim.mean_ms, "ms");
    ("sim_p99_ms", sim.p99_ms, "ms");
  ]

(* ---- --trace 1 ----------------------------------------------------- *)

(* Collections and promotion over [f]'s work, which returns its message
   count. *)
let gc_profile f =
  let s0 = Gc.quick_stat () in
  let _, pro0, ma0 = Gc.counters () in
  let msgs = f () in
  let s1 = Gc.quick_stat () in
  let _, pro1, ma1 = Gc.counters () in
  let per_mmsg x = float_of_int x *. 1e6 /. float_of_int (max 1 msgs) in
  let promoted = pro1 -. pro0 in
  [
    ( "gc.minor_collections",
      per_mmsg (s1.Gc.minor_collections - s0.Gc.minor_collections),
      "1/Mmsg" );
    ( "gc.major_collections",
      per_mmsg (s1.Gc.major_collections - s0.Gc.major_collections),
      "1/Mmsg" );
    ("gc.promoted_words_per_msg", promoted /. float_of_int (max 1 msgs), "words");
    ( "gc.direct_major_words_per_msg",
      (ma1 -. ma0 -. promoted) /. float_of_int (max 1 msgs),
      "words" );
  ]

let pair_overhead traced untraced =
  median_f
    (Array.mapi
       (fun i t -> (float_of_int t /. float_of_int (max 1 untraced.(i))) -. 1.)
       traced)

(* Open loop, traced: untraced and traced units of trial 0 alternate
   until [seconds] have passed; every unit must reproduce the reference
   outputs.  On a read-only workload every 16th arrival's in-flight
   outcome is also checked against [Query.run]. *)
let open_traced (sp : Spec.t) (ol : Spec.open_loop) lay ~seconds =
  let ref_out = Openloop.of_result (fst (simulate sp ol ~trial:0)) in
  let gc =
    gc_profile (fun () ->
        let _, u = simulate sp ol ~trial:0 in
        check_repeat "a repeated simulate" ~trial:0 ref_out u.outputs;
        Openloop.total_messages u.outputs)
  in
  Ledger.calibrate ();
  let samples = Hashtbl.create 128 in
  let sample i o = if not (Hashtbl.mem samples i) then Hashtbl.replace samples i o in
  let untraced = ref [] and traced = ref [] in
  let start = Ledger.now () in
  let deadline = int_of_float (seconds *. 1e9) in
  while !traced = [] || Ledger.now () - start < deadline do
    let _, u = simulate sp ol ~trial:0 in
    check_repeat "a repeated simulate" ~trial:0 ref_out u.outputs;
    let t0 = Ledger.now () in
    let o =
      Openloop.traced_unit sp.Spec.cfg sp.Spec.opts ~qps:ol.Spec.qps ~trial:0 lay
        ~sample_every:16 ~sample
    in
    let tw = Ledger.now () - t0 in
    attempt o.Openloop.arrivals_n;
    check_unit "traced trial 0" o;
    check_repeat "the traced loop" ~trial:0 ref_out o;
    untraced := u.wall_ns :: !untraced;
    traced := tw :: !traced
  done;
  if read_only sp then begin
    let sync = synchronous_outcomes sp ol in
    let bad = ref 0 in
    Hashtbl.iter
      (fun i (o : Query.outcome) ->
        let s = sync.(i) in
        if
          s.Query.found <> o.Query.found
          || s.Query.satisfied <> o.Query.satisfied
          || Query.messages s <> Query.messages o
        then incr bad)
      samples;
    Printf.printf "sampled in-flight outcomes: %d checked against Query.run\n"
      (Hashtbl.length samples);
    check "sampled in-flight outcomes equal Query.run (found, satisfied, messages)"
      (!bad = 0 && Hashtbl.length samples > 0)
      ~ops:!bad
  end;
  ( gc,
    pair_overhead (Array.of_list (List.rev !traced))
      (Array.of_list (List.rev !untraced)) )

(* Closed loop, traced: units of the first [det_blocks] blocks on a
   fresh copy of the trial-0 network, untraced and traced in turn until
   [seconds] have passed.  Every unit issues the same ops, and the two
   forms must agree on every op's outputs. *)
let closed_traced (sp : Spec.t) cl lay ~seconds =
  let unit ?traced () =
    let c = closed_loop sp cl (build sp.Spec.cfg ~trial:0) in
    run_closed ?traced cl c ~seconds:0.
  in
  let first = ref None in
  let gc =
    gc_profile (fun () ->
        let r = unit () in
        first := Some r;
        messages r.acc)
  in
  let reference = Closed.Ints.to_array (Option.get !first).acc.Closed.digest in
  Ledger.calibrate ();
  let untraced = ref [] and traced = ref [] in
  let start = Ledger.now () in
  let deadline = int_of_float (seconds *. 1e9) in
  while !traced = [] || Ledger.now () - start < deadline do
    let u = unit () in
    let spans0 = !Ledger.spans in
    let t = unit ~traced:lay () in
    let wall = Array.fold_left ( + ) 0 t.block_ns in
    lay.Layers.wall_ns <- lay.Layers.wall_ns + wall;
    lay.Layers.tracer_ns <-
      lay.Layers.tracer_ns + ((!Ledger.spans - spans0) * !Ledger.outer_ns);
    List.iter
      (fun (what, r) ->
        check
          (Printf.sprintf "the %s closed loop reproduces every op's outputs" what)
          (Closed.Ints.to_array r.acc.Closed.digest = reference)
          ~ops:(r.acc.Closed.queries + r.acc.Closed.waves))
      [ ("untraced", u); ("traced", t) ];
    untraced := Array.fold_left ( + ) 0 u.block_ns :: !untraced;
    traced := wall :: !traced
  done;
  ( gc,
    pair_overhead (Array.of_list (List.rev !traced))
      (Array.of_list (List.rev !untraced)) )

(* Routing decisions of [queries] queries (uniform origins, topics of
   the workload's Zipf skew, drawn from the run's seed) on a fresh
   trial-0 network, captured from [Query.run]'s events: the origin and every
   first visit rank their neighbors, except the visit that satisfies
   the query.  Each (node, sender, query) is then replayed through
   [Scheme.rank_array] with the walk's candidate filter (every
   neighbor but the sender — a first visit has sent nothing yet). *)
let scheme_replay (sp : Spec.t) ~queries =
  let setup = build sp.Spec.cfg ~trial:0 in
  let net = setup.Trial.network in
  let rng = Prng.create ((sp.Spec.cfg.Config.seed * 7919) + 17) in
  let zipf = Workload.Zipf.create ~exponent:sp.Spec.opts.T.o_zipf setup.Trial.universe in
  let nodes = Closed.Ints.create () and froms = Closed.Ints.create () in
  let qidx = Closed.Ints.create () in
  let projected =
    Array.init queries (fun q ->
        let origin = Prng.int rng (Network.size net) in
        let query = Workload.Zipf.query zipf rng ~stop:sp.Spec.cfg.Config.stop_condition in
        let visited = Hashtbl.create 64 in
        Hashtbl.replace visited origin ();
        let visits = ref [ (origin, -1) ] in
        let on_event = function
          | Query.Forwarded { sender; receiver } ->
              if not (Hashtbl.mem visited receiver) then begin
                Hashtbl.replace visited receiver ();
                visits := (receiver, sender) :: !visits
              end
          | _ -> ()
        in
        let o =
          Query.run ~on_event net ~origin ~query ~forwarding:Query.Ri_guided
        in
        let ranked =
          match !visits with _ :: rest when o.Query.satisfied -> rest | l -> l
        in
        List.iter
          (fun (node, from) ->
            Closed.Ints.push nodes node;
            Closed.Ints.push froms from;
            Closed.Ints.push qidx q)
          (List.rev ranked);
        Network.project_query net query.Workload.topics)
  in
  let nodes = Closed.Ints.to_array nodes and froms = Closed.Ints.to_array froms in
  let qidx = Closed.Ints.to_array qidx in
  let calls = Array.length nodes in
  let candidates = ref 0 in
  let pass () =
    let w0 = Ledger.words () in
    let t0 = Ledger.now () in
    for k = 0 to calls - 1 do
      let from = froms.(k) in
      let r =
        Ri_core.Scheme.rank_array (Network.ri net nodes.(k))
          ~query:projected.(qidx.(k)) ~keep:(fun v -> v <> from)
      in
      candidates := !candidates + Array.length r
    done;
    (Ledger.now () - t0, Ledger.words () - w0)
  in
  let passes = Array.init 5 (fun _ -> pass ()) in
  Printf.printf "scheme replay: %d ranking decisions from %d queries, 5 passes\n"
    calls queries;
  [
    ( "scheme.rank_ns_per_call",
      median_f (Array.map (fun (ns, _) -> fdiv ns calls) passes),
      "ns" );
    ( "scheme.rank_alloc_words_per_call",
      fdiv (snd passes.(0)) calls,
      "words" );
    ("scheme.rank_candidates_mean", fdiv !candidates (5 * calls), "count");
  ]

let per_layer (sp : Spec.t) ~seconds =
  let trial = trial_layers sp in
  pin sp ~trials:1;
  let lay = Layers.create () in
  let gc, overhead =
    match sp.Spec.loop with
    | Spec.Open ol -> open_traced sp ol lay ~seconds
    | Spec.Closed cl -> closed_traced sp cl lay ~seconds
  in
  let scheme = scheme_replay sp ~queries:sp.Spec.replay_queries in
  let open Ledger in
  let l = lay in
  let ns_per x = fdiv x.ns x.calls and words_per x = fdiv x.words x.calls in
  let layers_ns = List.fold_left (fun acc x -> acc + x.ns) 0 (Layers.all l) in
  List.iter
    (fun x ->
      Printf.printf "  span %-16s %10d calls %14d ns self %14d words self\n" x.name
        x.calls x.ns x.words)
    (Layers.all l);
  Printf.printf "  traced wall %d ns, tracer share %d ns (%d spans)\n"
    l.Layers.wall_ns l.Layers.tracer_ns !spans;
  trial
  @ [
      ( "engine.self_ns_per_msg",
        fdiv
          (l.Layers.engine_run.ns + l.Layers.engine_send.ns + l.Layers.engine_inject.ns)
          l.Layers.messages,
        "ns" );
      ("engine.inflight_peak", float_of_int l.Layers.inflight_peak, "count");
      ("engine.queue_peak", float_of_int l.Layers.queue_peak, "count");
      ( "engine.queue_mean",
        l.Layers.queue_depth_sum /. float_of_int (max 1 l.Layers.messages),
        "count" );
      ( "engine.wait_share",
        fdiv l.Layers.wait_ns (l.Layers.wait_ns + l.Layers.busy_ns),
        "ratio" );
      ("query.start_ns", ns_per l.Layers.query_start, "ns");
      ("query.start_alloc_words", words_per l.Layers.query_start, "words");
      ("query.deliver_ns_per_msg", ns_per l.Layers.query_deliver, "ns");
      ("query.deliver_alloc_words_per_msg", words_per l.Layers.query_deliver, "words");
      ("query.finish_ns", ns_per l.Layers.query_finish, "ns");
      ( "query.return_share",
        fdiv l.Layers.returns (l.Layers.forwards + l.Layers.returns),
        "ratio" );
      ("query.useful_visit_share", fdiv l.Layers.useful_visits l.Layers.visits, "ratio");
    ]
  @ scheme
  @ [
      ("update.seed_ns_per_wave", fdiv l.Layers.upd_seed.ns l.Layers.waves, "ns");
      ("update.deliver_ns_per_msg", ns_per l.Layers.upd_deliver, "ns");
      ( "update.alloc_words_per_wave",
        fdiv
          (l.Layers.upd_seed.words + l.Layers.upd_deliver.words + l.Layers.upd_wire.words)
          l.Layers.waves,
        "words" );
      ("update.msgs_per_wave", fdiv l.Layers.upd_messages l.Layers.waves, "count");
      ( "update.wire_bytes_per_msg",
        fdiv l.Layers.upd_wire_bytes l.Layers.upd_messages,
        "B" );
      ( "update.significant_share",
        fdiv l.Layers.upd_significant l.Layers.upd_delivered,
        "ratio" );
      ("obs.sketch_add_ns", ns_per l.Layers.obs_sketch, "ns");
      ("obs.decomp_add_ns", ns_per l.Layers.obs_decomp, "ns");
    ]
  @ gc
  @ [
      ( "ledger.closure",
        fdiv layers_ns (l.Layers.wall_ns - l.Layers.tracer_ns),
        "ratio" );
      ("trace.overhead", overhead, "ratio");
    ]

(* ---- command line -------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S timed phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--tiny", Arg.Set tiny, " self-test scale: a few hundred nodes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]";
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let scale = if !tiny then Spec.Tiny else Spec.Full in
  let sp =
    match Spec.make ~scale ~seed:!seed !workload with
    | Some sp -> sp
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (expected one of: %s)" !workload
             (String.concat ", " Spec.names))
  in
  Pool.set_global_jobs 1;
  Setup_cache.set_enabled true;
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d scale=%s nodes=%d\n%!"
    sp.Spec.name !seed !seconds !trace
    (if !tiny then "tiny" else "full")
    sp.Spec.cfg.Config.num_nodes;
  let metrics =
    if !trace = 0 then end_to_end sp ~seconds:!seconds
    else per_layer sp ~seconds:!seconds
  in
  List.iter
    (fun (name, v, _) ->
      check (name ^ " is a finite number") (Float.is_finite v) ~ops:0)
    metrics;
  print_result
    (List.map
       (fun (name, v, unit) -> (name, (if Float.is_finite v then v else 0.), unit))
       metrics);
  if checks.broken <> [] then exit 1
