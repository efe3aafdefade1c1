type t = { spacing : float; feedback_delay : float }

let paper_burst = { spacing = 0.040; feedback_delay = 0.300 }
let instantaneous = { spacing = 0.0; feedback_delay = 0.0 }
