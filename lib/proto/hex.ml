(* Capture logs carry every packet and payload as hex, so both
   directions are one table lookup per nibble rather than a [Printf] or
   [int_of_string] call per byte. *)

let hex_digits = "0123456789abcdef"

(* Nibble value of each character, -1 for a non-hex one; both cases. *)
let nibble_values =
  let values = Array.make 256 (-1) in
  String.iteri
    (fun v c ->
      values.(Char.code c) <- v;
      values.(Char.code (Char.uppercase_ascii c)) <- v)
    hex_digits;
  values

let encode bytes =
  let length = Bytes.length bytes in
  let hex = Bytes.create (2 * length) in
  for i = 0 to length - 1 do
    let byte = Bytes.get_uint8 bytes i in
    Bytes.set hex (2 * i) (String.unsafe_get hex_digits (byte lsr 4));
    Bytes.set hex ((2 * i) + 1) (String.unsafe_get hex_digits (byte land 15))
  done;
  Bytes.unsafe_to_string hex

let decode s =
  let length = String.length s in
  if length mod 2 <> 0 then Error "odd-length hex string"
  else
    let bytes = Bytes.create (length / 2) in
    let rec fill i =
      if i = Bytes.length bytes then Ok bytes
      else
        let hi = nibble_values.(Char.code s.[2 * i])
        and lo = nibble_values.(Char.code s.[(2 * i) + 1]) in
        if hi < 0 || lo < 0 then Error "malformed hex string"
        else begin
          Bytes.set_uint8 bytes i ((hi lsl 4) lor lo);
          fill (i + 1)
        end
    in
    fill 0
