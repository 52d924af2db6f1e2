(* The closed loop: one client issuing back-to-back synchronous queries
   ([Query.run]) interleaved with update waves ([Update.local_change]),
   in blocks of a fixed op pattern.  The traced form replays the same op
   stream through [Query.Step] and the wave's per-message calls. *)

open Ri_util
open Ri_content
open Ri_p2p
open Ri_sim

type t = {
  net : Network.t;
  n : int;
  stop : int;
  update_fraction : float;
  rng : Prng.t;
  zipf : Workload.Zipf.t;
  topic_totals : float array;
  spec : Spec.closed_loop;
  service_ns : int;
  link_ns : int;
  budget : int;  (** a wave's message cap, as [Update.wave] sets it *)
}

(* The op stream is a function of [rng] alone, so an untraced and a
   traced loop over two builds of the same trial issue identical ops. *)
let create (cfg : Config.t) (opts : Ri_experiments.Traffic.opts)
    (setup : Trial.setup) spec ~rng =
  let net = setup.Trial.network in
  let n = Network.size net in
  let degrees = ref 0 in
  for v = 0 to n - 1 do
    degrees := !degrees + Network.degree net v
  done;
  let topic_totals = Array.make cfg.Config.topics 0. in
  for v = 0 to n - 1 do
    let s = Network.raw_local_summary net v in
    for tp = 0 to cfg.Config.topics - 1 do
      topic_totals.(tp) <- topic_totals.(tp) +. Summary.get s tp
    done
  done;
  {
    net;
    n;
    stop = cfg.Config.stop_condition;
    update_fraction = cfg.Config.update_fraction;
    rng;
    zipf =
      Workload.Zipf.create ~exponent:opts.Ri_experiments.Traffic.o_zipf
        setup.Trial.universe;
    topic_totals;
    spec;
    service_ns =
      Engine.of_seconds (1. /. opts.Ri_experiments.Traffic.o_service_rate);
    link_ns =
      Engine.of_seconds (opts.Ri_experiments.Traffic.o_link_latency /. 1000.);
    budget = 20 * (n + !degrees);
  }

let next_query t =
  let origin = Prng.int t.rng t.n in
  (origin, Workload.Zipf.query t.zipf t.rng ~stop:t.stop)

(* A wave adds a batch of documents on a popular topic at a random
   node, sized like the traffic plane's waves. *)
let next_wave t =
  let origin = Prng.int t.rng t.n in
  let topic = Workload.Zipf.draw t.zipf t.rng in
  let batch =
    Float.max 1. (Float.round (t.update_fraction *. t.topic_totals.(topic)))
  in
  let base = Network.raw_local_summary t.net origin in
  let by_topic = Array.copy base.Summary.by_topic in
  by_topic.(topic) <- by_topic.(topic) +. batch;
  (origin, Summary.make ~total:(base.Summary.total +. batch) ~by_topic)

(* Growable int buffer. *)
module Ints = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 1024 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
end

(* What a block leaves behind.  [digest] holds each op's outputs
   (query: messages, found, satisfied; wave: messages, wire bytes) for
   the untraced-vs-traced equality check. *)
type acc = {
  query_ns : Ints.t;
  wave_ns : Ints.t;
  digest : Ints.t;
  sketch : Ri_obs.Sketch.t;  (** no-load simulated latency, ms *)
  decomp : Ri_obs.Observatory.decomp;
  mutable queries : int;
  mutable query_messages : int;
  mutable waves : int;
  mutable update_messages : int;
}

let acc () =
  {
    query_ns = Ints.create ();
    wave_ns = Ints.create ();
    digest = Ints.create ();
    sketch = Ri_obs.Sketch.create ();
    decomp = Ri_obs.Observatory.decomp_zero ();
    queries = 0;
    query_messages = 0;
    waves = 0;
    update_messages = 0;
  }

(* One client, no contention: a query's simulated latency is its
   no-load walk — one service slot per mailbox delivery (the entry plus
   every forward and return) and one link crossing per send, nothing
   queued.  The same model the open loops run under load. *)
let sim_latency t (o : Query.outcome) =
  let c = o.Query.counters in
  let sends = c.Message.query_forwards + c.Message.query_returns in
  let service_ns = (sends + 1) * t.service_ns in
  let link_ns = sends * t.link_ns in
  (service_ns, link_ns, 1000. *. Engine.to_seconds (service_ns + link_ns))

let note_query a (o : Query.outcome) =
  let m = Query.messages o in
  a.queries <- a.queries + 1;
  a.query_messages <- a.query_messages + m;
  Ints.push a.digest m;
  Ints.push a.digest o.Query.found;
  Ints.push a.digest (if o.Query.satisfied then 1 else 0)

let note_wave a (c : Message.counters) =
  a.waves <- a.waves + 1;
  a.update_messages <- a.update_messages + c.Message.update_messages;
  Ints.push a.digest c.Message.update_messages;
  Ints.push a.digest c.Message.update_wire_bytes

(* Ops of one block in order: [queries_per_block] queries and
   [waves_per_block] waves, the waves spread evenly among the queries
   (200 + 100 gives query, query, wave, ...). *)
let iter_block t ~query ~wave =
  let q = t.spec.Spec.queries_per_block and w = t.spec.Spec.waves_per_block in
  let n = q + w in
  for i = 0 to n - 1 do
    if (i + 1) * w / n > i * w / n then wave () else query ()
  done

let block t a =
  let counters = Message.create () in
  iter_block t
    ~query:(fun () ->
      let origin, query = next_query t in
      let t0 = Ledger.now () in
      let o = Query.run t.net ~origin ~query ~forwarding:Query.Ri_guided in
      Ints.push a.query_ns (Ledger.now () - t0);
      let service_ns, link_ns, ms = sim_latency t o in
      Ri_obs.Sketch.add a.sketch ms;
      Ri_obs.Observatory.decomp_add a.decomp ~total_ns:(service_ns + link_ns)
        ~queue_ns:0 ~service_ns ~link_ns;
      note_query a o)
    ~wave:(fun () ->
      let origin, summary = next_wave t in
      Message.reset counters;
      let t0 = Ledger.now () in
      Update.local_change t.net ~origin ~summary ~counters;
      Ints.push a.wave_ns (Ledger.now () - t0);
      note_wave a counters)

(* The traced block: the same ops, each query driven through
   [Query.Step] inline (the zero-latency schedule [Query.run] is) and
   each wave through [seeds_for_change] + a FIFO of [deliver_one] (the
   order [Update.wave] delivers in), with a span around every call. *)
let deliver_step = Query.Step.deliver

let traced_block t a (lay : Layers.t) =
  let open Ledger in
  let counters = Message.create () in
  let on_event = Layers.on_update_event lay in
  iter_block t
    ~query:(fun () ->
      let origin, query = next_query t in
      let st, first =
        span lay.Layers.query_start (fun () ->
            Query.Step.start t.net ~origin ~query ~forwarding:Query.Ri_guided)
      in
      let next = ref first in
      while Option.is_some !next do
        next := span2 lay.Layers.query_deliver deliver_step st (Option.get !next)
      done;
      let o = span lay.Layers.query_finish (fun () -> Query.Step.finish st) in
      Layers.note_outcome lay o;
      let service_ns, link_ns, ms = sim_latency t o in
      span2 lay.Layers.obs_sketch Ri_obs.Sketch.add a.sketch ms;
      span lay.Layers.obs_decomp (fun () ->
          Ri_obs.Observatory.decomp_add a.decomp
            ~total_ns:(service_ns + link_ns) ~queue_ns:0 ~service_ns ~link_ns);
      note_query a o)
    ~wave:(fun () ->
      let origin, summary = next_wave t in
      Message.reset counters;
      let net = t.net in
      let seeds =
        span lay.Layers.upd_seed (fun () ->
            Update.seeds_for_change net ~at:origin ~except:[] ~mutate:(fun () ->
                Network.set_local_summary net origin summary))
      in
      let reached = Bytes.make t.n '\000' in
      Bytes.set reached origin '\001';
      let wave_id = Network.fresh_wave net in
      let q = Queue.create () in
      List.iter (fun s -> Queue.add s q) seeds;
      let forward s = Queue.add s q in
      let sent = ref 0 in
      while (not (Queue.is_empty q)) && !sent < t.budget do
        let seed = Queue.pop q in
        if Network.has_link net seed.Update.sender seed.Update.receiver then begin
          incr sent;
          counters.Message.update_messages <- counters.Message.update_messages + 1;
          let bytes = span lay.Layers.upd_wire (fun () -> Update.wire_cost seed) in
          counters.Message.update_wire_bytes <-
            counters.Message.update_wire_bytes + bytes;
          span lay.Layers.upd_deliver (fun () ->
              Update.deliver_one ~on_event net ~reached ~wave_id ~forward seed)
        end
      done;
      lay.Layers.waves <- lay.Layers.waves + 1;
      lay.Layers.upd_messages <-
        lay.Layers.upd_messages + counters.Message.update_messages;
      lay.Layers.upd_wire_bytes <-
        lay.Layers.upd_wire_bytes + counters.Message.update_wire_bytes;
      note_wave a counters)
