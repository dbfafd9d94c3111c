(** Unit helpers. Base units throughout the repository: seconds for
    time, bytes for data at rest, bits/second for rates. *)

val gbps : float -> float
(** [gbps x] is [x] gigabits/second in bits/second. *)

val kbyte : float -> int
(** [kbyte x] is [x] kilobytes (1000 bytes) rounded to bytes. *)

val mbyte : float -> int
(** [mbyte x] is [x] megabytes (10^6 bytes) rounded to bytes. *)

val us : float -> float
(** [us x] is [x] microseconds in seconds. *)

val bytes_to_bits : int -> float
(** Wire bits for a byte count. *)

val tx_time : bytes:int -> rate:float -> float
(** Serialization delay of [bytes] at [rate] bits/second. *)
