let on = ref false

let enable () = on := true
let disable () = on := false

let with_enabled f =
  let saved = !on in
  on := true;
  Fun.protect ~finally:(fun () -> on := saved) f
