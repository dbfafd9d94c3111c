module Sim = Pdq_engine.Sim
module Rng = Pdq_engine.Rng
module Link = Pdq_net.Link
module Packet = Pdq_net.Packet
module Topology = Pdq_net.Topology
module Header = Pdq_core.Header
module Fault_plan = Pdq_faults.Fault_plan
module Int_table = Pdq_engine.Int_table

let k_deliver = Sim.Kind.register "chaos.deliver"
let k_apply = Sim.Kind.register "chaos.apply"

(* Per-directed-link adversarial conditions, mutated by the timed plan
   events. All-None state passes packets through untouched and draws
   nothing, so a wrapped link with no active condition behaves
   bit-identically to an unwrapped one. *)
type state = {
  mutable reorder : (float * float) option; (* p, hold *)
  mutable duplicate : float option;
  mutable corrupt : float option;
  mutable jitter : float option;
}

let fresh_state () =
  { reorder = None; duplicate = None; corrupt = None; jitter = None }

(* The adversary acts on the forward scheduling pass only (SYN / DATA /
   PROBE / TERM): switches re-derive their soft state from traversing
   headers there, which is the robustness surface the paper leans on
   (§3). Reverse-pass feedback is left intact — corrupting grants in
   flight defeats any rate-based transport trivially and distinguishes
   nothing. *)
let forward_kind (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Syn | Packet.Data | Packet.Probe | Packet.Term -> true
  | Packet.Syn_ack | Packet.Ack -> false

(* Duplicates deep-copy every mutable scheduling payload so downstream
   in-place header rewrites cannot alias. *)
let copy_payload = function
  | Payloads.Pdq_sched (h, a) -> Payloads.Pdq_sched (Header.copy h, a)
  | Payloads.Rcp_ctrl (r, a) ->
      Payloads.Rcp_ctrl ({ r with Payloads.rcp_rate = r.Payloads.rcp_rate }, a)
  | Payloads.D3_ctrl (d, a) ->
      Payloads.D3_ctrl
        ({ d with Payloads.d3_allocated = d.Payloads.d3_allocated }, a)
  | p -> p

let copy_packet (pkt : Packet.t) =
  { pkt with Packet.payload = copy_payload pkt.Packet.payload }

(* Corrupt one scheduling field in place — garbage a wire bit-flip
   could plausibly produce, bounded so float arithmetic stays finite.
   A payload without scheduling state is left alone (the whether-draw
   is already consumed; the field draws below only happen on
   corruptible payloads, which is a deterministic function of the
   packet).

   Only fields a correct switch re-derives every RTT are touched:
   the PDQ rate request and pause attribution (allocations are
   recomputed per hop and the binding verdict rides the untouched
   reverse pass), the RCP rate and the D3 allocation. The ET-decision
   inputs — deadline, expected transmission time, RTT — are
   deliberately excluded: switches store them verbatim
   (Flow_state.update_from_header), so garbage there makes a {e
   correct} implementation terminate feasible flows, indistinguishable
   from the allocator bug the invariant monitors exist to catch. The
   same boundary keeps the fuzzer's healthy-protocol runs
   violation-free. *)
let corrupt_payload rng (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Payloads.Pdq_sched (h, _) -> (
      match Rng.int rng 2 with
      | 0 -> h.Header.rate <- Rng.uniform rng 0. 2e9
      | _ ->
          h.Header.pause_by <-
            (match h.Header.pause_by with None -> Some 0 | Some _ -> None))
  | Payloads.Rcp_ctrl (r, _) -> r.Payloads.rcp_rate <- Rng.uniform rng 0. 2e9
  | Payloads.D3_ctrl (d, _) ->
      d.Payloads.d3_allocated <- Rng.uniform rng 0. 2e9
  | _ -> ()

(* Clock skew: deadlines in PDQ headers entering the skewed switch
   appear [skew] seconds more urgent. The header is replaced by a
   shifted copy — downstream hops see the skewed deadline too, the
   pessimistic reading of one fast switch clock poisoning the
   scheduling pipeline. *)
let skew_packet (pkt : Packet.t) ~skew =
  match pkt.Packet.payload with
  | Payloads.Pdq_sched (h, a) when h.Header.deadline <> None ->
      let deadline = Option.map (fun d -> d -. skew) h.Header.deadline in
      let h' = { (Header.copy h) with Header.deadline } in
      pkt.Packet.payload <- Payloads.Pdq_sched (h', a)
  | _ -> ()

let wrap ~sim ~state ~skew ~corruptible ~rng orig pkt =
  (match skew with
  | Some sref when !sref <> 0. && forward_kind pkt ->
      skew_packet pkt ~skew:!sref
  | _ -> ());
  if not (forward_kind pkt) then orig pkt
  else begin
    (* Fixed per-packet draw order — corrupt, duplicate, reorder,
       jitter — one whether-draw per *active* condition, none for
       inactive ones. Corruption fires only on directions entering a
       switch: the next hop's allocator clamps a corrupted rate
       request ([process_forward]'s [min availbw]), whereas garbage on
       the last switch→receiver hop would be echoed to the sender
       unsanitized and read as an allocator over-grant. *)
    (match state.corrupt with
    | Some p when corruptible && Rng.bool rng p -> corrupt_payload rng pkt
    | _ -> ());
    let dup =
      match state.duplicate with Some p -> Rng.bool rng p | None -> false
    in
    let held =
      match state.reorder with
      | Some (p, hold) -> if Rng.bool rng p then hold else 0.
      | None -> 0.
    in
    let jit =
      match state.jitter with
      | Some max_delay -> Rng.uniform rng 0. max_delay
      | None -> 0.
    in
    let deliver () =
      orig pkt;
      if dup then orig (copy_packet pkt)
    in
    let delay = held +. jit in
    if delay > 0. then ignore (Sim.schedule_k sim k_deliver ~delay deliver)
    else deliver ()
  end

let install ~sim ~topo ~rng plan =
  let events =
    List.filter
      (fun (_, ev) -> Fault_plan.is_adversarial ev)
      (Fault_plan.events plan)
  in
  if events <> [] then begin
    (* Wrap every link the plan can touch, in link-id order, one rng
       split per wrapped link — the same stream layout for any event
       timing. *)
    let states : state Int_table.t = Int_table.create 16 in
    let skews : float ref Int_table.t = Int_table.create 4 in
    let add tbl k fresh =
      if not (Int_table.mem tbl k) then Int_table.replace tbl k (fresh ())
    in
    let find_opt tbl k =
      if Int_table.mem tbl k then Some (Int_table.find tbl k) else None
    in
    let cable_states ~a ~b f =
      List.iter (fun l -> f (Link.id l)) (Topology.cable topo ~a ~b)
    in
    List.iter
      (fun (_, ev) ->
        match ev with
        | Fault_plan.Reorder { a; b; _ }
        | Fault_plan.Duplicate { a; b; _ }
        | Fault_plan.Corrupt { a; b; _ }
        | Fault_plan.Jitter { a; b; _ }
        | Fault_plan.Clear { a; b } ->
            cable_states ~a ~b (fun id -> add states id fresh_state)
        | Fault_plan.Clock_skew { switch; _ } ->
            add skews switch (fun () -> ref 0.)
        | Fault_plan.Link_down _ | Fault_plan.Link_up _
        | Fault_plan.Set_loss _ | Fault_plan.Switch_reboot _ ->
            ())
      events;
    for id = 0 to Topology.link_count topo - 1 do
      let l = Topology.link topo id in
      let state = find_opt states id in
      let skew = find_opt skews (Link.dst l) in
      match (state, skew) with
      | None, None -> ()
      | state, skew ->
          let state = Option.value state ~default:(fresh_state ()) in
          let corruptible = Topology.kind topo (Link.dst l) = Topology.Switch in
          let link_rng = Rng.split rng in
          let orig = Link.receiver l in
          Link.set_receiver l
            (wrap ~sim ~state ~skew ~corruptible ~rng:link_rng orig)
    done;
    let set ~a ~b f =
      cable_states ~a ~b (fun id -> f (Int_table.find states id))
    in
    let apply ev =
      match ev with
      | Fault_plan.Reorder { a; b; p; hold } ->
          set ~a ~b (fun s -> s.reorder <- Some (p, hold))
      | Fault_plan.Duplicate { a; b; p } ->
          set ~a ~b (fun s -> s.duplicate <- Some p)
      | Fault_plan.Corrupt { a; b; p } ->
          set ~a ~b (fun s -> s.corrupt <- Some p)
      | Fault_plan.Jitter { a; b; max_delay } ->
          set ~a ~b (fun s -> s.jitter <- Some max_delay)
      | Fault_plan.Clear { a; b } ->
          set ~a ~b (fun s ->
              s.reorder <- None;
              s.duplicate <- None;
              s.corrupt <- None;
              s.jitter <- None)
      | Fault_plan.Clock_skew { switch; skew } ->
          Int_table.find skews switch := skew
      | Fault_plan.Link_down _ | Fault_plan.Link_up _ | Fault_plan.Set_loss _
      | Fault_plan.Switch_reboot _ ->
          ()
    in
    List.iter
      (fun (time, ev) ->
        if time <= Sim.now sim then apply ev
        else ignore (Sim.schedule_at_k sim k_apply ~time (fun () -> apply ev)))
      events
  end
