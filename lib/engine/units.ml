let gbps x = x *. 1e9
let kbyte x = int_of_float (x *. 1e3)
let mbyte x = int_of_float (x *. 1e6)
let us x = x *. 1e-6
let bytes_to_bits b = float_of_int b *. 8.
let tx_time ~bytes ~rate = bytes_to_bits bytes /. rate
