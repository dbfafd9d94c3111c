module Config = Pdq_core.Config

(* A deliberately broken PDQ rate allocator, built purely from real
   configuration knobs so no product code carries test-only branches:
   - [k_early_start] so large that Algorithm 2 treats every more
     critical flow as "nearly finished" and skips it, granting each
     stored flow the full available rate simultaneously;
   - [dampening = 0] so every paused flow is accepted immediately (no
     admission pacing to mask the over-grant);
   - [queue_allowance_bytes] so large that the rate controller never
     sees a queue and never throttles C below rPDQ.
   An allocator that never says no: every stored flow is granted the
   full line rate at once, sustained link oversubscription that the
   capacity monitor must flag (and a visibly broken run: standing
   queues, FCT inflation). *)
let broken_allocator =
  {
    Config.full with
    Config.k_early_start = 1e12;
    dampening = 0.;
    queue_allowance_bytes = max_int / 2;
  }
