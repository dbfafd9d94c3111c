type kind = Syn | Syn_ack | Data | Ack | Probe | Term
type payload = ..
type payload += No_payload

type t = {
  flow : int;
  src : int;
  dst : int;
  kind : kind;
  wire_bytes : int;
  payload_bytes : int;
  seq : int;
  mutable payload : payload;
  sent_at : float;
}

let mtu = 1500
let header_bytes = 40
let max_payload ~scheduling_header = mtu - header_bytes - scheduling_header

let make ~flow ~src ~dst ~kind ?(payload_bytes = 0) ?(seq = 0) ?(extra_header = 0)
    ~payload ~now () =
  {
    flow;
    src;
    dst;
    kind;
    wire_bytes = header_bytes + extra_header + payload_bytes;
    payload_bytes;
    seq;
    payload;
    sent_at = now;
  }
