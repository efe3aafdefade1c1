(* Prints the SIMD paths this host runs, best last: the GF(2^8) kernel
   (Gf.kernel and every path its tests cover) and the wire CRC-32.  CI
   logs it, so a run shows which paths its differential tests reached.

     dune exec bench/kernel_paths.exe *)

let () =
  Printf.printf "gf kernel: %s (paths: %s)\n" Rmcast.Gf.kernel
    (String.concat " " Rmcast.Gf.For_testing.paths);
  Printf.printf "crc paths: %s\n" (String.concat " " Rmcast.Header.For_testing.paths)
