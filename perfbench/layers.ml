(* The traced run's ledger: one span layer per call site into the
   library, plus the work counts that turn them into per-unit ratios. *)

open Ledger

type t = {
  engine_run : layer;  (** [Engine.run] minus the spans its handlers open *)
  engine_send : layer;  (** [Engine.send] *)
  engine_inject : layer;  (** [Engine.inject] *)
  query_start : layer;
  query_deliver : layer;
  query_finish : layer;
  upd_seed : layer;  (** [Update.seeds_for_change] *)
  upd_deliver : layer;  (** [Update.deliver_one] *)
  upd_wire : layer;  (** [Update.wire_cost] *)
  obs_sketch : layer;  (** [Sketch.add] *)
  obs_decomp : layer;  (** [Observatory.decomp_add] *)
  mutable messages : int;  (** engine deliveries *)
  mutable inflight_peak : int;
  mutable queue_peak : int;
  mutable queue_depth_sum : float;  (** queue_mean weighted by deliveries *)
  mutable wait_ns : int;
  mutable busy_ns : int;
  mutable forwards : int;
  mutable returns : int;
  mutable visits : int;
  mutable useful_visits : int;  (** visits that found results *)
  mutable waves : int;
  mutable upd_messages : int;
  mutable upd_wire_bytes : int;
  mutable upd_delivered : int;
  mutable upd_significant : int;
  mutable wall_ns : int;  (** traced wall time of the timed units *)
  mutable tracer_ns : int;  (** the probes' calibrated share of it *)
}

let create () =
  {
    engine_run = layer "engine.run";
    engine_send = layer "engine.send";
    engine_inject = layer "engine.inject";
    query_start = layer "query.start";
    query_deliver = layer "query.deliver";
    query_finish = layer "query.finish";
    upd_seed = layer "update.seed";
    upd_deliver = layer "update.deliver";
    upd_wire = layer "update.wire";
    obs_sketch = layer "obs.sketch";
    obs_decomp = layer "obs.decomp";
    messages = 0;
    inflight_peak = 0;
    queue_peak = 0;
    queue_depth_sum = 0.;
    wait_ns = 0;
    busy_ns = 0;
    forwards = 0;
    returns = 0;
    visits = 0;
    useful_visits = 0;
    waves = 0;
    upd_messages = 0;
    upd_wire_bytes = 0;
    upd_delivered = 0;
    upd_significant = 0;
    wall_ns = 0;
    tracer_ns = 0;
  }

let all t =
  [
    t.engine_run;
    t.engine_send;
    t.engine_inject;
    t.query_start;
    t.query_deliver;
    t.query_finish;
    t.upd_seed;
    t.upd_deliver;
    t.upd_wire;
    t.obs_sketch;
    t.obs_decomp;
  ]

(* Significance of each update delivery, from the wave's own events. *)
let on_update_event t = function
  | Ri_p2p.Update.Delivered { significant; _ } ->
      t.upd_delivered <- t.upd_delivered + 1;
      if significant then t.upd_significant <- t.upd_significant + 1
  | Ri_p2p.Update.Dropped _ | Ri_p2p.Update.Delayed _ | Ri_p2p.Update.Round _
  | Ri_p2p.Update.Repaired _ ->
      ()

let note_outcome t (o : Ri_p2p.Query.outcome) =
  let c = o.Ri_p2p.Query.counters in
  t.forwards <- t.forwards + c.Ri_p2p.Message.query_forwards;
  t.returns <- t.returns + c.Ri_p2p.Message.query_returns;
  t.visits <- t.visits + o.Ri_p2p.Query.nodes_visited;
  t.useful_visits <- t.useful_visits + c.Ri_p2p.Message.result_messages
