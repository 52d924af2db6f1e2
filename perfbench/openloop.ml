(* The open loops: Poisson arrivals on a schedule drawn up front, so a
   slow engine never slows the generator — latency counts from each
   query's scheduled arrival, in logical time.

   Untraced, a unit is one [Traffic.simulate] call.  Traced, the same
   unit is rebuilt here from the library's public calls, in the order
   [Traffic.simulate] makes them (same substream splits, same
   injections, same per-message handlers), with a span around each, and
   must reproduce its outputs exactly. *)

open Ri_util
open Ri_content
open Ri_p2p
open Ri_sim
module T = Ri_experiments.Traffic

type arrival = {
  at : int;
  origin : int;
  query : Workload.query;
  qrng : Prng.t;
}

type streams = { arrivals : arrival array; update_rng : Prng.t }

(* The arrival schedule [Traffic.simulate] draws for this setup:
   substreams split in its order (arrival, topic, origin, per-query,
   update), one draw sequence per stream. *)
let streams (cfg : Config.t) (opts : T.opts) ~qps (setup : Trial.setup) =
  let n = Network.size setup.Trial.network in
  let arrival_rng = Prng.split setup.Trial.rng in
  let topic_rng = Prng.split setup.Trial.rng in
  let origin_rng = Prng.split setup.Trial.rng in
  let per_query = Prng.split setup.Trial.rng in
  let update_rng = Prng.split setup.Trial.rng in
  let zipf =
    Workload.Zipf.create ~exponent:opts.T.o_zipf ~shift_every:opts.T.o_shift_every
      setup.Trial.universe
  in
  let horizon_ns = Engine.of_seconds opts.T.o_duration in
  let out = ref [] in
  let t = ref 0. in
  let more = ref true in
  while !more do
    t := !t +. Workload.poisson_next arrival_rng ~rate:qps;
    let at = Engine.of_seconds !t in
    if at >= horizon_ns then more := false
    else begin
      let origin = Prng.int origin_rng n in
      let query = Workload.Zipf.query zipf topic_rng ~stop:cfg.Config.stop_condition in
      let qrng = Prng.split per_query in
      out := { at; origin; query; qrng } :: !out
    end
  done;
  { arrivals = Array.of_list (List.rev !out); update_rng }

(* The deterministic outputs both forms must agree on. *)
type outputs = {
  arrivals_n : int;
  completed : int;
  satisfied : int;
  found : int;
  messages : int;
  update_messages : int;
  update_wire_bytes : int;
  queue_peak : int;
  sketch : string;  (** [Sketch.encode] bytes *)
  decomp : Ri_obs.Observatory.decomp;
}

let of_result (r : T.trial_result) =
  {
    arrivals_n = r.T.r_arrivals;
    completed = r.T.r_completed;
    satisfied = r.T.r_satisfied;
    found = r.T.r_found;
    messages = r.T.r_messages;
    update_messages = r.T.r_update_messages;
    update_wire_bytes = r.T.r_update_wire_bytes;
    queue_peak = r.T.r_queue_peak;
    sketch = Ri_obs.Sketch.encode r.T.r_sketch;
    decomp = r.T.r_decomp;
  }

let total_messages o = o.messages + o.update_messages

let send_fn eng dst h = Engine.send eng ~dst h
let deliver_step = Query.Step.deliver

(* One traced unit.  [sample] receives (arrival index, outcome) for
   every [sample_every]-th arrival, for the read-only equality check. *)
let traced_unit (cfg : Config.t) (opts : T.opts) ~qps ~trial (lay : Layers.t)
    ~sample_every ~sample =
  let open Ledger in
  let t_unit = now () in
  let tracer0 = !Ledger.spans in
  let setup = Trial.build ~purpose:Trial.For_update cfg ~trial in
  let net = setup.Trial.network in
  let n = Network.size net in
  let forwarding = Query.Ri_guided in
  let service_ns = Engine.of_seconds (1. /. opts.T.o_service_rate) in
  let link_ns = Engine.of_seconds (opts.T.o_link_latency /. 1000.) in
  let eng = Engine.create ~service_ns ~link_ns ~nodes:n () in
  let st = streams cfg opts ~qps setup in
  let sketch = Ri_obs.Sketch.create () in
  let decomp = Ri_obs.Observatory.decomp_zero () in
  let completed = ref 0 and satisfied = ref 0 and found = ref 0 in
  let messages = ref 0 and inflight = ref 0 in
  Array.iteri
    (fun i a ->
      let at = a.at and origin = a.origin in
      span lay.Layers.engine_inject (fun () ->
          Engine.inject eng ~at ~dst:origin (fun () ->
              incr inflight;
              if !inflight > lay.Layers.inflight_peak then
                lay.Layers.inflight_peak <- !inflight;
              let entry_wait = Engine.last_wait_ns eng in
              let q_wait = ref entry_wait in
              let deliveries = ref 1 in
              let machine, first =
                span lay.Layers.query_start (fun () ->
                    Query.Step.start ~rng:a.qrng net ~origin ~query:a.query
                      ~forwarding)
              in
              let rec dispatch = function
                | None ->
                    let o =
                      span lay.Layers.query_finish (fun () ->
                          Query.Step.finish machine)
                    in
                    decr inflight;
                    Layers.note_outcome lay o;
                    incr completed;
                    if o.Query.satisfied then incr satisfied;
                    found := !found + o.Query.found;
                    messages := !messages + Query.messages o;
                    if i mod sample_every = 0 then sample i o;
                    let total_ns = Engine.now eng - at in
                    span lay.Layers.obs_decomp (fun () ->
                        Ri_obs.Observatory.decomp_add decomp ~total_ns
                          ~queue_ns:!q_wait
                          ~service_ns:(!deliveries * service_ns)
                          ~link_ns:((!deliveries - 1) * link_ns));
                    span2 lay.Layers.obs_sketch Ri_obs.Sketch.add sketch
                      (1000. *. Engine.to_seconds total_ns)
                | Some (s : Query.Step.send) ->
                    span3 lay.Layers.engine_send send_fn eng s.Query.Step.dst
                      (fun () ->
                        q_wait := !q_wait + Engine.last_wait_ns eng;
                        incr deliveries;
                        dispatch
                          (span2 lay.Layers.query_deliver deliver_step machine s))
              in
              dispatch first)))
    st.arrivals;
  let ucounters = Message.create () in
  if opts.T.o_update_rate > 0. && Network.has_ri net then begin
    let budget =
      let degrees = ref 0 in
      for v = 0 to n - 1 do
        degrees := !degrees + Network.degree net v
      done;
      20 * (n + !degrees)
    in
    let topic_totals = Array.make cfg.Config.topics 0. in
    for v = 0 to n - 1 do
      let s = Network.raw_local_summary net v in
      for tp = 0 to cfg.Config.topics - 1 do
        topic_totals.(tp) <- topic_totals.(tp) +. Summary.get s tp
      done
    done;
    let uzipf =
      Workload.Zipf.create ~exponent:opts.T.o_zipf
        ~shift_every:opts.T.o_shift_every setup.Trial.universe
    in
    let on_event = Layers.on_update_event lay in
    let start_wave origin topic =
      let batch =
        Float.max 1.
          (Float.round (cfg.Config.update_fraction *. topic_totals.(topic)))
      in
      let base = Network.raw_local_summary net origin in
      let by_topic = Array.copy base.Summary.by_topic in
      by_topic.(topic) <- by_topic.(topic) +. batch;
      let summary = Summary.make ~total:(base.Summary.total +. batch) ~by_topic in
      let reached = Bytes.make n '\000' in
      Bytes.set reached origin '\001';
      let wave_id = Network.fresh_wave net in
      let sent = ref 0 in
      let rec send_seed (seed : Update.wave_seed) =
        if
          Network.has_link net seed.Update.sender seed.Update.receiver
          && !sent < budget
        then begin
          incr sent;
          ucounters.Message.update_messages <-
            ucounters.Message.update_messages + 1;
          let bytes = span lay.Layers.upd_wire (fun () -> Update.wire_cost seed) in
          ucounters.Message.update_wire_bytes <-
            ucounters.Message.update_wire_bytes + bytes;
          span3 lay.Layers.engine_send send_fn eng seed.Update.receiver (fun () ->
              span lay.Layers.upd_deliver (fun () ->
                  Update.deliver_one ~on_event net ~reached ~wave_id
                    ~forward:send_seed seed))
        end
      in
      List.iter send_seed
        (span lay.Layers.upd_seed (fun () ->
             Update.seeds_for_change net ~at:origin ~except:[] ~mutate:(fun () ->
                 Network.set_local_summary net origin summary)))
    in
    let horizon_ns = Engine.of_seconds opts.T.o_duration in
    let t = ref 0. in
    let more = ref true in
    while !more do
      t := !t +. Workload.poisson_next st.update_rng ~rate:opts.T.o_update_rate;
      let at = Engine.of_seconds !t in
      if at >= horizon_ns then more := false
      else begin
        lay.Layers.waves <- lay.Layers.waves + 1;
        let origin = Prng.int st.update_rng n in
        let topic = Workload.Zipf.draw uzipf st.update_rng in
        span lay.Layers.engine_inject (fun () ->
            Engine.inject eng ~at ~dst:origin (fun () -> start_wave origin topic))
      end
    done
  end;
  span lay.Layers.engine_run (fun () -> Engine.run eng);
  let wait = ref 0 and busy = ref 0 in
  for v = 0 to n - 1 do
    let s = Engine.node_stat eng v in
    wait := !wait + s.Engine.s_wait_ns;
    busy := !busy + s.Engine.s_busy_ns
  done;
  let processed = Engine.processed eng in
  lay.Layers.messages <- lay.Layers.messages + processed;
  lay.Layers.wait_ns <- lay.Layers.wait_ns + !wait;
  lay.Layers.busy_ns <- lay.Layers.busy_ns + !busy;
  lay.Layers.queue_peak <- max lay.Layers.queue_peak (Engine.queue_peak eng);
  lay.Layers.queue_depth_sum <-
    lay.Layers.queue_depth_sum +. (Engine.queue_mean eng *. float_of_int processed);
  lay.Layers.upd_messages <-
    lay.Layers.upd_messages + ucounters.Message.update_messages;
  lay.Layers.upd_wire_bytes <-
    lay.Layers.upd_wire_bytes + ucounters.Message.update_wire_bytes;
  lay.Layers.wall_ns <- lay.Layers.wall_ns + (now () - t_unit);
  lay.Layers.tracer_ns <-
    lay.Layers.tracer_ns + ((!Ledger.spans - tracer0) * !Ledger.outer_ns);
  {
    arrivals_n = Array.length st.arrivals;
    completed = !completed;
    satisfied = !satisfied;
    found = !found;
    messages = !messages;
    update_messages = ucounters.Message.update_messages;
    update_wire_bytes = ucounters.Message.update_wire_bytes;
    queue_peak = Engine.queue_peak eng;
    sketch = Ri_obs.Sketch.encode sketch;
    decomp;
  }
